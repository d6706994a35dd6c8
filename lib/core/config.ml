type t = {
  verify : [ `Bdd | `Sat | `Off ];
  sat_portfolio : int;
  serve_domains : int;
}

let max_domains = 128
let verifies = [ ("off", `Off); ("sat", `Sat); ("bdd", `Bdd) ]

(* Plain decimal digits only: no sign, no [0x]/[_] forms, no padding. *)
let int_in ~hi v =
  if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v then
    Option.bind (int_of_string_opt v) (fun n ->
        if n >= 1 && n <= hi then Some n else None)
  else None

let of_lookup lookup =
  let setting var ~accepted ~parse ~default =
    match lookup var with
    | None -> default
    | Some v -> (
      match parse v with
      | Some x -> x
      | None ->
        invalid_arg
          (Printf.sprintf "%s=%S: accepted values are %s" var v accepted))
  in
  let domains var ~default =
    setting var ~default ~parse:(int_in ~hi:max_domains)
      ~accepted:(Printf.sprintf "integers 1 .. %d" max_domains)
  in
  {
    verify =
      setting "LOWPOWER_VERIFY" ~default:`Off
        ~parse:(fun v -> List.assoc_opt v verifies)
        ~accepted:(String.concat " | " (List.map fst verifies));
    sat_portfolio = domains "LOWPOWER_SAT_PORTFOLIO" ~default:1;
    serve_domains =
      domains "LOWPOWER_SERVE_DOMAINS"
        ~default:(max 1 (min 8 (Domain.recommended_domain_count ())));
  }

(* Not [Lazy]: forcing one lazy value from two domains at once raises.
   Domains racing here parse the same environment into equal records. *)
let current = Atomic.make None

let get () =
  match Atomic.get current with
  | Some c -> c
  | None ->
    let c = of_lookup Sys.getenv_opt in
    Atomic.set current (Some c);
    c

let to_string c =
  Printf.sprintf "config: verify=%s sat_portfolio=%d serve_domains=%d"
    (fst (List.find (fun (_, v) -> v = c.verify) verifies))
    c.sat_portfolio c.serve_domains
