type mode = [ `Bdd | `Sat | `Off ]

exception Failed of string

let resolve = function Some m -> m | None -> (Lowpower.Config.get ()).verify

type session = { base : Network.t; mutable cec : Cec.session option }

let session net = { base = net; cec = None }

let cec_session sess =
  match sess.cec with
  | Some c -> c
  | None ->
    let c = Cec.session sess.base in
    sess.cec <- Some c;
    c

let vec_to_string vec =
  String.init (Array.length vec) (fun i -> if vec.(i) then '1' else '0')

let fail pass what cex =
  let suffix =
    match cex with
    | None -> ""
    | Some vec -> Printf.sprintf " (counterexample inputs %s)" (vec_to_string vec)
  in
  raise (Failed (Printf.sprintf "%s: %s%s" pass what suffix))

let assignment_to_vec n asgn =
  let vec = Array.make n false in
  List.iter (fun (v, b) -> if v < n then vec.(v) <- b) asgn;
  vec

let equivalent ?mode ~pass before after =
  match resolve mode with
  | `Off -> ()
  | `Sat -> (
    match Cec.check before after with
    | Cec.Equivalent -> ()
    | Cec.Counterexample vec ->
      fail pass "pass changed circuit behaviour" (Some vec))
  | `Bdd ->
    let man = Bdd.manager () in
    let n = List.length (Network.inputs before) in
    List.iter
      (fun (name, _) ->
        let fa = Network.output_bdd before man name in
        let fb = Network.output_bdd after man name in
        if not (Bdd.equal fa fb) then
          let cex =
            Option.map (assignment_to_vec n) (Bdd.any_sat (Bdd.xor man fa fb))
          in
          fail pass
            (Printf.sprintf "pass changed output %S" name)
            cex)
      (Network.outputs before)

let never_true ?mode ?session ~pass net out =
  match resolve mode with
  | `Off -> ()
  | `Sat -> (
    let witness =
      match session with
      | Some sess -> Cec.session_never_true (cec_session sess) net out
      | None -> Cec.satisfiable net out
    in
    match witness with
    | None -> ()
    | Some vec -> fail pass ("obligation output " ^ out ^ " is satisfiable") (Some vec))
  | `Bdd ->
    let man = Bdd.manager () in
    let f = Network.output_bdd net man out in
    if not (Bdd.is_false f) then
      let n = List.length (Network.inputs net) in
      let cex = Option.map (assignment_to_vec n) (Bdd.any_sat f) in
      fail pass ("obligation output " ^ out ^ " is satisfiable") cex
