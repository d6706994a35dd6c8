type outcome =
  | Equivalent
  | Counterexample of bool array

let output_names net =
  List.sort compare (List.map fst (Network.outputs net))

let validate a b =
  if List.length (Network.inputs a) <> List.length (Network.inputs b) then
    invalid_arg "Cec: input counts differ";
  if output_names a <> output_names b then
    invalid_arg "Cec: output name sets differ"

(* ------------------------------------------------------------------ *)
(* Miter construction                                                 *)
(* ------------------------------------------------------------------ *)

(* Instantiate a copy of [net] inside [target], its input [k] driven by
   [input_of k]; returns the image of each original node. *)
let embed target input_of net =
  let image = Hashtbl.create 256 in
  List.iteri (fun k i -> Hashtbl.replace image i (input_of k)) (Network.inputs net);
  List.iter
    (fun i ->
      if not (Network.is_input net i) then begin
        let fanins =
          List.map (fun j -> Hashtbl.find image j) (Network.fanins net i)
        in
        Hashtbl.replace image i (Network.add_node target (Network.func net i) fanins)
      end)
    (Network.topo_order net);
  fun i -> Hashtbl.find image i

let rec or_tree net = function
  | [] -> Network.add_node ~name:"miter" net Expr.fls []
  | [ x ] -> x
  | xs ->
    let rec pair = function
      | a :: b :: rest ->
        Network.add_node net Expr.(var 0 ||| var 1) [ a; b ] :: pair rest
      | rest -> rest
    in
    or_tree net (pair xs)

let miter a b =
  validate a b;
  let n = List.length (Network.inputs a) in
  let t = Network.create () in
  let ins = Array.init n (fun _ -> Network.add_input t) in
  let ia = embed t (fun k -> ins.(k)) a in
  let ib = embed t (fun k -> ins.(k)) b in
  let outs_b = Network.outputs b in
  let diffs =
    List.map
      (fun nm ->
        let oa = ia (List.assoc nm (Network.outputs a)) in
        let ob = ib (List.assoc nm outs_b) in
        Network.add_node t Expr.(var 0 ^^^ var 1) [ oa; ob ])
      (output_names a)
  in
  Network.set_output t "miter" (or_tree t diffs);
  t

(* ------------------------------------------------------------------ *)
(* Counterexample replay through the event simulator                  *)
(* ------------------------------------------------------------------ *)

let replay a b vec =
  let m = miter a b in
  let n = List.length (Network.inputs m) in
  let base = Array.make n false in
  let base_value = List.assoc "miter" (Network.eval_outputs m base) in
  let r = Event_sim.run m Event_sim.Unit_delay [ base; vec ] in
  let miter_id = List.assoc "miter" (Network.outputs m) in
  let toggles =
    Option.value (Hashtbl.find_opt r.Event_sim.functional miter_id) ~default:0
  in
  (* Settled value on [vec] = value on [base], flipped once per settled
     transition of the single cycle simulated. *)
  if toggles land 1 = 1 then not base_value else base_value

(* ------------------------------------------------------------------ *)
(* The check                                                          *)
(* ------------------------------------------------------------------ *)

let confirmed a b vec =
  if replay a b vec then Counterexample vec
  else failwith "Cec.check: counterexample failed Event_sim replay"

let output_index bs nm =
  let outs = Compiled.outputs (Bitsim.compiled bs) in
  let idx = ref (-1) in
  Array.iter (fun (nm', x) -> if nm' = nm then idx := x) outs;
  assert (!idx >= 0);
  !idx

(* Encode both operands over shared inputs plus one XOR miter literal per
   matched output pair. *)
let encode_miters s a b =
  let env_a = Cnf.add_network s a in
  let env_b = Cnf.add_network ~inputs:env_a.Cnf.inputs s b in
  let miters =
    List.map
      (fun nm ->
        let la = Cnf.lit_of_output env_a nm in
        let lb = Cnf.lit_of_output env_b nm in
        Cnf.lit_of_expr s
          ~leaf:(fun v -> if v = 0 then la else lb)
          Expr.(var 0 ^^^ var 1))
      (output_names a)
  in
  (env_a, miters)

let check ?(rounds = 4) ?(seed = 1) ?on_stats a b =
  validate a b;
  let n = List.length (Network.inputs a) in
  let names = output_names a in
  let rng = Lowpower.Rng.create seed in
  (* Simulation filter: find a disagreeing output pair cheaply — the shared
     word-parallel engine, 63 random vectors per round over flat planes. *)
  let ba = Bitsim.of_network a and bb = Bitsim.of_network b in
  let pa = Array.make (Bitsim.size ba) 0 in
  let pb = Array.make (Bitsim.size bb) 0 in
  let words = Array.make n 0 in
  let sim_cex = ref None in
  let round = ref 0 in
  while !sim_cex = None && !round < rounds do
    incr round;
    for k = 0 to n - 1 do
      words.(k) <- Lowpower.Rng.bernoulli_word rng 0.5
    done;
    Bitsim.eval_into ba words pa;
    Bitsim.eval_into bb words pb;
    List.iter
      (fun nm ->
        if !sim_cex = None then begin
          let wa = pa.(output_index ba nm) in
          let wb = pb.(output_index bb nm) in
          if wa <> wb then begin
            let bit = ref 0 in
            let d = wa lxor wb in
            while (d lsr !bit) land 1 = 0 do
              incr bit
            done;
            sim_cex :=
              Some (Array.init n (fun k -> (words.(k) lsr !bit) land 1 = 1))
          end
        end)
      names
  done;
  match !sim_cex with
  | Some vec -> confirmed a b vec
  | None ->
    (* Candidate-equivalent outputs: discharge each with one incremental
       SAT call over a shared encoding. *)
    let s = Solver.create () in
    let env_a, miters = encode_miters s a b in
    let finish r =
      Option.iter (fun f -> f (Solver.stats s)) on_stats;
      r
    in
    let rec go = function
      | [] -> finish Equivalent
      | m :: rest -> (
        match Solver.solve ~assumptions:[ m ] s with
        | Solver.Unsat -> go rest
        | Solver.Sat ->
          let vec =
            Array.map (fun l -> Solver.lit_true s l) env_a.Cnf.inputs
          in
          finish (confirmed a b vec))
    in
    go miters

let satisfiable net name =
  (match List.assoc_opt name (Network.outputs net) with
  | Some _ -> ()
  | None -> invalid_arg "Cec.satisfiable: unknown output");
  let s = Solver.create () in
  let env = Cnf.add_network s net in
  match Solver.solve ~assumptions:[ Cnf.lit_of_output env name ] s with
  | Solver.Unsat -> None
  | Solver.Sat -> Some (Array.map (fun l -> Solver.lit_true s l) env.Cnf.inputs)

(* ------------------------------------------------------------------ *)
(* Incremental sessions                                               *)
(* ------------------------------------------------------------------ *)

(* Source tables for sweeping candidates into a session, built on the
   first {!session_encode} so never-true obligations pay nothing.  Indices
   are the source's compact ones.
   - [strash] maps a node key (local function, canonical fanin literals)
     to the literal of the first source node with that key; [canon] is
     that canonical literal for every node, so structurally duplicated
     source nodes share one literal, and [outputs] the canonical literal
     of every output.
   - [planes.(r)] holds every node's value under the input words
     [stimulus.(r)] (63 random vectors per round); [by_sig] indexes the
     nodes, one per canonical variable, by the hash of their
     polarity-normalized signature, with equality checked on the planes
     themselves. *)
module Strash = Hashtbl.Make (struct
  type t = Expr.t * Solver.lit array

  let equal (f, ls) (g, ms) = ls = ms && Expr.equal f g

  let hash (f, ls) =
    Array.fold_left (fun h l -> (h * 65599) + l) (Hashtbl.hash f) ls
    land max_int
end)

type tables = {
  strash : Solver.lit Strash.t;
  canon : Solver.lit array;
  outputs : (string * Solver.lit) list;
  stimulus : int array array;
  planes : int array array;
  by_sig : (int, int) Hashtbl.t;
}

type session = {
  base : Network.t;
  s : Solver.t;
  env : Cnf.env;
  mutable retired : int;  (* activation literals retired since last simplify *)
  tables : tables Lazy.t;
}

let sweep_rounds = 4
let sweep_seed = 0x5eed

(* A candidate node whose signature matches several source nodes tries at
   most this many of them, so a signature shared by many near-constant
   nodes cannot turn one node into a quadratic run of solves. *)
let merge_tries = 3

(* Signatures are compared up to complement: every word is XORed with
   the mask that clears lane 0 of the first round. *)
let polarity planes x = -(planes.(0).(x) land 1)

let sig_hash planes x =
  let m = polarity planes x in
  Array.fold_left (fun h p -> (h * 1_000_003) lxor (p.(x) lxor m)) 0 planes
  land max_int

let simulate stimulus net =
  let bs = Bitsim.of_network net in
  (Bitsim.compiled bs, Array.map (Bitsim.eval bs) stimulus)

let build_tables net env =
  let rng = Lowpower.Rng.create sweep_seed in
  let n = List.length (Network.inputs net) in
  let stimulus =
    Array.init sweep_rounds (fun _ ->
        Array.init n (fun _ -> Lowpower.Rng.bernoulli_word rng 0.5))
  in
  let c, planes = simulate stimulus net in
  let canon = Array.make (Compiled.size c) 0 in
  Array.iteri (fun k x -> canon.(x) <- env.Cnf.inputs.(k)) (Compiled.inputs c);
  let strash = Strash.create 256 in
  Array.iter
    (fun x ->
      if not (Compiled.is_input c x) then begin
        let key =
          ( Compiled.local_func c x,
            Array.map (Array.get canon) (Compiled.fanins c x) )
        in
        canon.(x) <-
          (match Strash.find_opt strash key with
          | Some l -> l
          | None ->
            let l = Cnf.lit_of_node env (Compiled.id_of_index c x) in
            Strash.replace strash key l;
            l)
      end)
    (Compiled.topo c);
  (* One entry per canonical variable (its first node), added in reverse
     topological order so [Hashtbl.find_all] lists a signature's nodes
     inputs-first. *)
  let seen = Hashtbl.create 256 in
  let reps =
    Array.fold_left
      (fun acc x ->
        let v = Solver.var_of canon.(x) in
        if Hashtbl.mem seen v then acc
        else begin
          Hashtbl.replace seen v ();
          x :: acc
        end)
      [] (Compiled.topo c)
  in
  let by_sig = Hashtbl.create 256 in
  List.iter (fun x -> Hashtbl.add by_sig (sig_hash planes x) x) reps;
  let outputs =
    Array.to_list
      (Array.map (fun (nm, x) -> (nm, canon.(x))) (Compiled.outputs c))
  in
  { strash; canon; outputs; stimulus; planes; by_sig }

let session net =
  let s = Solver.create () in
  let env = Cnf.add_network s net in
  { base = net; s; env; retired = 0; tables = lazy (build_tables net env) }

let session_stats sess = Solver.stats sess.s

let retire sess act =
  Solver.add_clause sess.s [ Solver.negate act ];
  sess.retired <- sess.retired + 1;
  if sess.retired >= 8 then begin
    Solver.simplify sess.s;
    sess.retired <- 0
  end

let fresh_activation sess =
  let act = Solver.pos (Solver.new_var sess.s) in
  Solver.freeze sess.s (Solver.var_of act);
  act

(* A proof-obligation network built by [Network.copy base] plus added
   nodes shares the base's node ids; encode only the suffix, checking
   that every shared id really is unchanged so a session is never applied
   to an unrelated network. *)
let extend_base sess ob act =
  if Network.inputs ob <> Network.inputs sess.base then
    invalid_arg "Cec.session: obligation inputs differ from session base";
  let overlay = Hashtbl.create 64 in
  let lit_of i =
    match Hashtbl.find_opt overlay i with
    | Some l -> l
    | None -> Cnf.lit_of_node sess.env i
  in
  List.iter
    (fun i ->
      if Network.mem sess.base i then begin
        if
          (not (Network.is_input ob i))
          && (Network.func ob i <> Network.func sess.base i
             || Network.fanins ob i <> Network.fanins sess.base i)
        then
          invalid_arg "Cec.session: obligation does not extend session base"
      end
      else begin
        let fanins = Array.of_list (List.map lit_of (Network.fanins ob i)) in
        let l =
          Cnf.lit_of_expr ~activation:act sess.s
            ~leaf:(fun v -> fanins.(v))
            (Network.func ob i)
        in
        Hashtbl.replace overlay i l
      end)
    (Network.topo_order ob);
  lit_of

let session_never_true sess ob out =
  let o =
    match List.assoc_opt out (Network.outputs ob) with
    | Some o -> o
    | None -> invalid_arg "Cec.session_never_true: unknown output"
  in
  let act = fresh_activation sess in
  let lit_of = extend_base sess ob act in
  let l = lit_of o in
  let verdict = Solver.solve ~assumptions:[ act; l ] sess.s in
  let r =
    match verdict with
    | Solver.Unsat -> None
    | Solver.Sat ->
      let vec =
        Array.map (fun l -> Solver.lit_true sess.s l) sess.env.Cnf.inputs
      in
      if List.assoc out (Network.eval_outputs ob vec) then Some vec
      else failwith "Cec.session_never_true: witness failed network replay"
  in
  retire sess act;
  r

let session_never_true_within sess ~conflicts ob out =
  let o =
    match List.assoc_opt out (Network.outputs ob) with
    | Some o -> o
    | None -> invalid_arg "Cec.session_never_true_within: unknown output"
  in
  let act = fresh_activation sess in
  let lit_of = extend_base sess ob act in
  let l = lit_of o in
  let c0 = (Solver.stats sess.s).Solver.conflicts in
  Solver.set_interrupt sess.s (fun () ->
      (Solver.stats sess.s).Solver.conflicts - c0 > conflicts);
  let r =
    match Solver.solve ~assumptions:[ act; l ] sess.s with
    | Solver.Unsat -> `Never_true
    | Solver.Sat ->
      let vec =
        Array.map (fun l -> Solver.lit_true sess.s l) sess.env.Cnf.inputs
      in
      if List.assoc out (Network.eval_outputs ob vec) then `Witness vec
      else
        failwith "Cec.session_never_true_within: witness failed network replay"
    | exception Solver.Interrupted -> `Undecided
  in
  Solver.set_interrupt sess.s (fun () -> false);
  retire sess act;
  r

type handle = {
  h_net : Network.t;
  h_act : Solver.lit;
  h_miters : (string * Solver.lit) list;
  mutable h_retired : bool;
}

(* A source literal standing in for a candidate node is frozen: solves
   interleave with encoding, so preprocessing must not eliminate a
   variable later clauses or assumptions mention ([freeze] also restores
   one it already eliminated). *)
let reuse sess l =
  Solver.freeze sess.s (Solver.var_of l);
  l

(* [l] (candidate, under [act]) equals [lb] (source) on every input iff
   both directions of their XOR are refuted.  A satisfiable direction
   just leaves the pair unmerged. *)
let proved_equal sess act l lb =
  let lb = reuse sess lb in
  Solver.solve ~assumptions:[ act; l; Solver.negate lb ] sess.s = Solver.Unsat
  && Solver.solve ~assumptions:[ act; Solver.negate l; lb ] sess.s
     = Solver.Unsat

(* Encode [other] in topological order.  A node whose key (function,
   fanin literals) matches a source node or an earlier candidate node
   takes that node's literal.  Otherwise it is encoded under [act], and if
   its simulation signature matches a source node's (up to complement)
   and SAT proves the two equal, the source literal replaces it for every
   later fanout — so the cones above proved-equal points fold back onto
   the source's own literals and most output miters become literally
   trivial. *)
let session_encode sess other =
  validate sess.base other;
  let t = Lazy.force sess.tables in
  let act = fresh_activation sess in
  let lits = Hashtbl.create 256 in
  List.iteri
    (fun k i -> Hashtbl.replace lits i sess.env.Cnf.inputs.(k))
    (Network.inputs other);
  let local = Strash.create 64 in
  let sim = lazy (simulate t.stimulus other) in
  let merge i l =
    let c, planes = Lazy.force sim in
    let x = Compiled.index_of_id c i in
    let m = polarity planes x in
    let matches sx =
      let ms = polarity t.planes sx in
      let rec same r =
        r = sweep_rounds
        || planes.(r).(x) lxor m = t.planes.(r).(sx) lxor ms && same (r + 1)
      in
      same 0
    in
    let rec attempt tries = function
      | sx :: rest when tries > 0 ->
        if not (matches sx) then attempt tries rest
        else begin
          let lb = t.canon.(sx) in
          let lb = if m = polarity t.planes sx then lb else Solver.negate lb in
          if proved_equal sess act l lb then lb else attempt (tries - 1) rest
        end
      | _ -> l
    in
    attempt merge_tries (Hashtbl.find_all t.by_sig (sig_hash planes x))
  in
  List.iter
    (fun i ->
      if not (Network.is_input other i) then begin
        let f = Network.func other i in
        let fanins =
          Array.of_list (List.map (Hashtbl.find lits) (Network.fanins other i))
        in
        let key = (f, fanins) in
        let l =
          match Strash.find_opt t.strash key with
          | Some l -> reuse sess l
          | None -> (
            match Strash.find_opt local key with
            | Some l -> l
            | None ->
              let fresh = Solver.num_vars sess.s in
              let l =
                Cnf.lit_of_expr ~activation:act sess.s
                  ~leaf:(fun v -> fanins.(v))
                  f
              in
              (* Only a newly defined variable is worth a merge: a buffer
                 or inverter returns its fanin's literal. *)
              let l = if Solver.var_of l >= fresh then merge i l else l in
              Strash.replace local key l;
              l)
        in
        Hashtbl.replace lits i l
      end)
    (Network.topo_order other);
  let outs = Network.outputs other in
  let miters =
    List.filter_map
      (fun nm ->
        let la = reuse sess (List.assoc nm t.outputs) in
        let lb = Hashtbl.find lits (List.assoc nm outs) in
        if la = lb then None
        else
          Some
            ( nm,
              Cnf.lit_of_expr ~activation:act sess.s
                ~leaf:(fun v -> if v = 0 then la else lb)
                Expr.(var 0 ^^^ var 1) ))
      (output_names sess.base)
  in
  { h_net = other; h_act = act; h_miters = miters; h_retired = false }

let session_recheck sess h =
  if h.h_retired then invalid_arg "Cec.session_recheck: handle retired";
  let rec go = function
    | [] -> Equivalent
    | (_, m) :: rest -> (
      match Solver.solve ~assumptions:[ h.h_act; m ] sess.s with
      | Solver.Unsat -> go rest
      | Solver.Sat ->
        let vec =
          Array.map (fun l -> Solver.lit_true sess.s l) sess.env.Cnf.inputs
        in
        confirmed sess.base h.h_net vec)
  in
  go h.h_miters

let session_retire sess h =
  if not h.h_retired then begin
    h.h_retired <- true;
    retire sess h.h_act
  end

let session_check sess other =
  let h = session_encode sess other in
  let r = session_recheck sess h in
  session_retire sess h;
  r
