type t = {
  verify : [ `Bdd | `Sat | `Off ];
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
  {
    verify =
      setting "LOWPOWER_VERIFY" ~default:`Off
        ~parse:(fun v -> List.assoc_opt v verifies)
        ~accepted:(String.concat " | " (List.map fst verifies));
    serve_domains =
      setting "LOWPOWER_SERVE_DOMAINS"
        ~default:(max 1 (min 8 (Domain.recommended_domain_count ())))
        ~parse:(int_in ~hi:max_domains)
        ~accepted:(Printf.sprintf "integers 1 .. %d" max_domains);
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
  Printf.sprintf "config: verify=%s serve_domains=%d"
    (fst (List.find (fun (_, v) -> v = c.verify) verifies))
    c.serve_domains
