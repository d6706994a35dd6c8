type engine = [ `Incremental | `Full ]

type t = {
  verify : [ `Bdd | `Sat | `Off ];
  bitsim : bool;
  sat_portfolio : int;
  serve_domains : int;
  sta : engine;
  actsim : engine;
  rewrite_beam : int;
}

let max_domains = 128
let verifies = [ ("off", `Off); ("sat", `Sat); ("bdd", `Bdd) ]
let switches = [ ("on", true); ("off", false) ]
let engines = [ ("incremental", `Incremental); ("full", `Full) ]

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
  let enum var table ~default =
    setting var ~default ~parse:(fun v -> List.assoc_opt v table)
      ~accepted:(String.concat " | " (List.map fst table))
  in
  let int var ~hi ~default =
    setting var ~default ~parse:(int_in ~hi)
      ~accepted:
        (if hi = max_int then "integers >= 1"
         else Printf.sprintf "integers 1 .. %d" hi)
  in
  {
    verify = enum "LOWPOWER_VERIFY" verifies ~default:`Off;
    bitsim = enum "LOWPOWER_BITSIM" switches ~default:true;
    sat_portfolio = int "LOWPOWER_SAT_PORTFOLIO" ~hi:max_domains ~default:1;
    serve_domains =
      int "LOWPOWER_SERVE_DOMAINS" ~hi:max_domains
        ~default:(max 1 (min 8 (Domain.recommended_domain_count ())));
    sta = enum "LOWPOWER_STA" engines ~default:`Incremental;
    actsim = enum "LOWPOWER_ACTSIM" engines ~default:`Incremental;
    rewrite_beam = int "LOWPOWER_REWRITE_BEAM" ~hi:max_int ~default:4;
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
  let name table x = fst (List.find (fun (_, y) -> y = x) table) in
  Printf.sprintf
    "config: verify=%s bitsim=%s sat_portfolio=%d serve_domains=%d sta=%s \
     actsim=%s rewrite_beam=%d"
    (name verifies c.verify) (name switches c.bitsim) c.sat_portfolio
    c.serve_domains (name engines c.sta) (name engines c.actsim)
    c.rewrite_beam
