(* Tests for lp_synth: Techlib, Subject, Mapper, Dontcare, Factor, Balance. *)

open Test_util

(* --- Techlib --- *)

let test_cells_consistent () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Techlib.cell_name ^ " pattern matches function")
        true (Techlib.check c))
    Techlib.default

let test_cell_lookup () =
  let c = Techlib.find Techlib.default "NAND2" in
  Alcotest.(check int) "arity" 2 c.Techlib.arity;
  Alcotest.(check bool) "missing cell" true
    (match Techlib.find Techlib.default "NAND9" with
    | exception Not_found -> true
    | _ -> false)

let test_pattern_func () =
  let p = Techlib.Inv (Techlib.Nand (Techlib.L 0, Techlib.L 1)) in
  Alcotest.(check bool) "and2" true
    (Truth_table.equal
       (Truth_table.of_expr 2 (Techlib.pattern_func p))
       (Truth_table.of_expr 2 Expr.(var 0 &&& var 1)))

(* --- Subject graphs --- *)

let test_decompose_equivalent () =
  let net = (Circuits.carry_select_adder 4).Circuits.net in
  let subj = Subject.decompose net in
  Alcotest.(check bool) "is subject graph" true (Subject.is_subject_graph subj);
  Alcotest.(check bool) "equivalent" true (networks_equivalent net subj)

let test_decompose_xor_shape () =
  let net = (Circuits.array_multiplier 3).Circuits.net in
  let subj = Subject.decompose net in
  Alcotest.(check bool) "is subject graph" true (Subject.is_subject_graph subj);
  Alcotest.(check bool) "equivalent" true (networks_equivalent net subj)

let test_decompose_for_power_equivalent () =
  let net = (Circuits.comparator 4).Circuits.net in
  let input_probs = Array.init 8 (fun k -> [| 0.9; 0.5; 0.2; 0.7 |].(k mod 4)) in
  let subj = Subject.decompose_for_power net ~input_probs in
  Alcotest.(check bool) "is subject graph" true (Subject.is_subject_graph subj);
  Alcotest.(check bool) "equivalent" true (networks_equivalent net subj)

let test_decompose_for_power_lowers_activity () =
  (* A wide AND with one rare input: absorbing the rare input first quiets
     the whole chain. *)
  let net = Network.create () in
  let ins = List.init 6 (fun _ -> Network.add_input net) in
  let g =
    Network.add_node net
      (Expr.and_list (List.init 6 Expr.var))
      ins
  in
  Network.set_output net "z" g;
  let input_probs = [| 0.9; 0.9; 0.9; 0.9; 0.9; 0.05 |] in
  let act n =
    Activity.switched_capacitance n
      (Activity.zero_delay n ~input_probs)
  in
  let balanced = Subject.decompose net in
  let power = Subject.decompose_for_power net ~input_probs in
  Alcotest.(check bool) "power decomposition quieter" true
    (act power < act balanced);
  Alcotest.(check bool) "still equivalent" true
    (networks_equivalent net power)

let test_decompose_rejects_constants () =
  let net = Network.create () in
  let _ = Network.add_input net in
  let c = Network.add_node net Expr.tru [] in
  Network.set_output net "z" c;
  expect_invalid_arg "constant node" (fun () -> Subject.decompose net)

(* --- Mapper --- *)

let mapped_equiv objective net =
  let subj = Subject.decompose net in
  let m = Mapper.map subj objective in
  let out = Mapper.netlist m in
  (m, networks_equivalent net out)

let test_map_area_equivalent () =
  let net = (Circuits.ripple_adder 3).Circuits.net in
  let _, ok = mapped_equiv Mapper.Area net in
  Alcotest.(check bool) "area mapping preserves function" true ok

let test_map_delay_equivalent () =
  let net = (Circuits.comparator 4).Circuits.net in
  let _, ok = mapped_equiv Mapper.Delay net in
  Alcotest.(check bool) "delay mapping preserves function" true ok

let test_map_power_equivalent () =
  let net = (Circuits.ripple_adder 3).Circuits.net in
  let subj = Subject.decompose net in
  let act = Activity.zero_delay subj ~input_probs:(Probability.uniform_inputs subj) in
  let m = Mapper.map subj (Mapper.Power act) in
  Alcotest.(check bool) "power mapping preserves function" true
    (networks_equivalent net (Mapper.netlist m))

let test_map_area_beats_delay_on_area () =
  let net = (Circuits.array_multiplier 3).Circuits.net in
  let subj = Subject.decompose net in
  let ma = Mapper.map subj Mapper.Area in
  let md = Mapper.map subj Mapper.Delay in
  Alcotest.(check bool) "area objective wins area" true
    (Mapper.total_area ma <= Mapper.total_area md +. 1e-9);
  Alcotest.(check bool) "delay objective wins delay" true
    (Mapper.critical_delay md <= Mapper.critical_delay ma +. 1e-9)

let test_map_power_beats_area_on_power () =
  let net = (Circuits.array_multiplier 3).Circuits.net in
  let subj = Subject.decompose net in
  let input_probs = Probability.uniform_inputs subj in
  let act = Activity.zero_delay subj ~input_probs in
  let mp = Mapper.map subj (Mapper.Power act) in
  let ma = Mapper.map subj Mapper.Area in
  Alcotest.(check bool) "power objective wins switched cap" true
    (Mapper.switched_capacitance mp ~input_probs
    <= Mapper.switched_capacitance ma ~input_probs +. 1e-9)

let test_map_uses_complex_cells () =
  let net = (Circuits.comparator 5).Circuits.net in
  let subj = Subject.decompose net in
  let m = Mapper.map subj Mapper.Area in
  let insts = Mapper.instances m in
  let interesting =
    List.filter (fun (n, _) -> n <> "INV" && n <> "NAND2") insts
  in
  Alcotest.(check bool) "beyond INV/NAND2" true (interesting <> [])

let test_map_rejects_non_subject () =
  let net = (Circuits.ripple_adder 2).Circuits.net in
  expect_invalid_arg "not decomposed" (fun () ->
      ignore (Mapper.map net Mapper.Area))

let test_map_custom_library_failure () =
  let net = (Circuits.ripple_adder 2).Circuits.net in
  let subj = Subject.decompose net in
  let only_inv = [ Techlib.find Techlib.default "INV" ] in
  expect_invalid_arg "inadequate library" (fun () ->
      ignore (Mapper.map ~cells:only_inv subj Mapper.Area))

(* --- Don't cares --- *)

let test_sdc_detected () =
  (* g's fanins are a and ~a: combinations (0,0) and (1,1) are
     unreachable. *)
  let net = Network.create () in
  let a = Network.add_input net in
  let na = Network.add_node net (Expr.not_ (Expr.var 0)) [ a ] in
  let g = Network.add_node net Expr.(var 0 &&& var 1) [ a; na ] in
  Network.set_output net "z" g;
  let d = Dontcare.compute net g in
  Alcotest.(check bool) "minterm 00 is sdc" true
    (Truth_table.get d.Dontcare.dontcare 0b00);
  Alcotest.(check bool) "minterm 11 is sdc" true
    (Truth_table.get d.Dontcare.dontcare 0b11);
  Alcotest.(check bool) "minterm 01 reachable" false
    (Truth_table.get d.Dontcare.dontcare 0b01)

let test_odc_detected () =
  (* z = g & a where g = a | b: when a = 0, g is unobservable. *)
  let net = Network.create () in
  let a = Network.add_input net in
  let b = Network.add_input net in
  let g = Network.add_node net Expr.(var 0 ||| var 1) [ a; b ] in
  let z = Network.add_node net Expr.(var 0 &&& var 1) [ g; a ] in
  Network.set_output net "z" z;
  let d = Dontcare.compute net g in
  (* Fanins of g are (a, b); combos with a = 0 are ODC. *)
  Alcotest.(check bool) "a=0,b=0 odc" true (Truth_table.get d.Dontcare.dontcare 0b00);
  Alcotest.(check bool) "a=0,b=1 odc" true (Truth_table.get d.Dontcare.dontcare 0b10);
  Alcotest.(check bool) "a=1,b=0 care" false (Truth_table.get d.Dontcare.dontcare 0b01)

(* One don't-care session per sweep, checked node by node against a fresh
   manager: at every visited node the sweep's don't-cares must equal
   [compute] on a copy of the network as it is at that moment.  The visit
   installs one of the node's candidates, rotating through them, so later
   nodes see a network whose global functions changed and the session
   must have refreshed those cones.  The session also compacts its
   manager on the way (10 and 22 times per sweep on the multipliers). *)
let test_sweep_matches_fresh () =
  let nets =
    [ ("mult3", (Circuits.array_multiplier 3).Circuits.net);
      ("mult4", (Circuits.array_multiplier 4).Circuits.net) ]
    @ List.map
        (fun seed ->
          ( Printf.sprintf "random%d" seed,
            Gen_comb.random (Lowpower.Rng.create seed)
              { Gen_comb.default_shape with
                Gen_comb.num_inputs = 7; num_gates = 25 } ))
        [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun (name, net) ->
      let reference = Network.copy net in
      let visited = ref 0 and installed = ref 0 in
      Dontcare.sweep net (Network.topo_order net) (fun d ->
          let n = d.Dontcare.node in
          let fresh = Dontcare.compute (Network.copy net) n in
          let label = Printf.sprintf "%s node %d" name n in
          Alcotest.(check bool) (label ^ " dontcare") true
            (Truth_table.equal fresh.Dontcare.dontcare d.Dontcare.dontcare);
          Alcotest.(check bool) (label ^ " onset") true
            (Truth_table.equal fresh.Dontcare.local_onset
               d.Dontcare.local_onset);
          let cover =
            List.nth (Dontcare.minimized_candidates d) (!visited mod 3)
          in
          incr visited;
          let e = Cover.to_expr cover in
          if not (Expr.equal e (Network.func net n)) then begin
            incr installed;
            Network.replace_func net n e (Network.fanins net n)
          end);
      Alcotest.(check int) (name ^ " visits every logic node")
        (Network.node_count net) !visited;
      if !installed = 0 then Alcotest.failf "%s: sweep never edited" name;
      Alcotest.(check bool) (name ^ " outputs preserved") true
        (networks_equivalent reference net))
    nets

(* The exact don't-care set of node [n], rebuilt without the sweep's
   simulation shortcut: the SDC of a fresh manager's global functions,
   plus every fanin code whose consistent input vectors all lie in
   [Dontcare.global_odc].  Returns [(sdc, sdc ∪ odc)]. *)
let exact_dontcare net n =
  let man = Bdd.manager () in
  let globals = Network.global_bdds net man in
  let npi = List.length (Network.inputs net) in
  let fanins = Network.fanins net n in
  let pis = List.init npi Fun.id in
  let consistency =
    Bdd.and_list man
      (List.mapi
         (fun j fi ->
           Bdd.xnor man (Bdd.var man (npi + j)) (Hashtbl.find globals fi))
         fanins)
  in
  let sdc = Bdd.not_ man (Bdd.exists man pis consistency) in
  let odc =
    Bdd.not_ man
      (Bdd.and_exists man pis consistency
         (Bdd.not_ man (Dontcare.global_odc net man globals n)))
  in
  let tt f =
    Truth_table.of_fun (List.length fanins) (fun code ->
        Bdd.eval f (fun v -> v >= npi && code land (1 lsl (v - npi)) <> 0))
  in
  (tt sdc, tt (Bdd.or_ man sdc odc))

(* A random network with four planted redundancies z = uv + uvw: the uvw
   node is unobservable wherever uv = 1, so its exact don't-cares reach
   beyond its SDC. *)
let planted_net seed =
  let r = Lowpower.Rng.create seed in
  let net =
    Gen_comb.random r
      { Gen_comb.default_shape with Gen_comb.num_inputs = 7; num_gates = 20 }
  in
  let ids = Array.of_list (Network.node_ids net) in
  for i = 1 to 4 do
    let u = Lowpower.Rng.pick r ids and v = Lowpower.Rng.pick r ids in
    let w = Lowpower.Rng.pick r ids in
    let p = Network.add_node net Expr.(var 0 &&& var 1) [ u; v ] in
    let t =
      Network.add_node net Expr.(and_list [ var 0; var 1; var 2 ]) [ u; v; w ]
    in
    let z = Network.add_node net Expr.(var 0 ||| var 1) [ p; t ] in
    Network.set_output net (Printf.sprintf "planted%d" i) z
  done;
  net

(* The sweep against the exact oracle at every node, while the visit
   edits the network so later nodes are analyzed on a changed one: three
   nodes in four get one of their candidates (rotating through them),
   the fourth an edit the don't-cares do not allow (xor with a new
   primary-input fanin), which changes global functions and simulated
   values downstream.  Most nodes' exact don't-cares equal their SDC,
   which the sweep settles by simulation; the rest need the BDD
   observability computation; both kinds must occur. *)
let test_sweep_matches_exact () =
  let mult w =
    (Printf.sprintf "mult%d" w, (Circuits.array_multiplier w).Circuits.net)
  in
  let nets =
    [ mult 3; mult 4; mult 5 ]
    @ List.map
        (fun seed ->
          ( Printf.sprintf "random%d" seed,
            Gen_comb.random (Lowpower.Rng.create seed)
              { Gen_comb.default_shape with
                Gen_comb.num_inputs = 7; num_gates = 25 } ))
        [ 11; 12; 13; 14 ]
    @ List.map
        (fun seed -> (Printf.sprintf "planted%d" seed, planted_net seed))
        [ 1; 2; 3 ]
  in
  let equal_sdc = ref 0 and beyond_sdc = ref 0 in
  List.iter
    (fun (name, net) ->
      let inputs = Array.of_list (Network.inputs net) in
      let visited = ref 0 and installed = ref 0 in
      Dontcare.sweep net (Network.topo_order net) (fun d ->
          let n = d.Dontcare.node in
          let sdc, exact = exact_dontcare net n in
          Alcotest.(check bool)
            (Printf.sprintf "%s node %d dontcare" name n)
            true
            (Truth_table.equal exact d.Dontcare.dontcare);
          if Truth_table.equal exact sdc then incr equal_sdc
          else incr beyond_sdc;
          let fanins = Network.fanins net n in
          (match !visited mod 4 with
          | 3 ->
            let x = inputs.(!visited mod Array.length inputs) in
            Network.replace_func net n
              Expr.(Network.func net n ^^^ var (List.length fanins))
              (fanins @ [ x ])
          | i ->
            let e =
              Cover.to_expr (List.nth (Dontcare.minimized_candidates d) i)
            in
            if not (Expr.equal e (Network.func net n)) then begin
              incr installed;
              Network.replace_func net n e fanins
            end);
          incr visited);
      if !installed = 0 then Alcotest.failf "%s: sweep never edited" name)
    nets;
  if !equal_sdc = 0 || !beyond_sdc = 0 then
    Alcotest.failf "want both kinds of node: %d with dc = sdc, %d beyond"
      !equal_sdc !beyond_sdc

(* Nodes at the edges of the sweep's simulation shortcut, each checked
   against the exact oracle: a dangling node (nothing observes it, so no
   lane can witness it and every code is a don't-care), 0-fanin
   constants, and 16-fanin nodes over 16 distinct inputs (too many care
   codes to witness) and over 3 repeated inputs (8 care codes). *)
let test_sweep_edge_nodes () =
  let net = Network.create () in
  let xs = List.init 16 (fun _ -> Network.add_input net) in
  let a = List.nth xs 0 and b = List.nth xs 1 in
  let one = Network.add_node net Expr.tru [] in
  let zero = Network.add_node net Expr.fls [] in
  let gated = Network.add_node net Expr.(var 0 &&& var 1) [ one; a ] in
  let dangling = Network.add_node net Expr.(var 0 ||| var 1) [ a; b ] in
  let wide = Network.add_node net (Expr.and_list (List.init 16 Expr.var)) xs in
  let masked = Network.add_node net Expr.(var 0 ||| var 1) [ wide; a ] in
  let parity =
    List.fold_left
      (fun acc j -> Expr.(acc ^^^ var j))
      (Expr.var 0) (List.init 15 succ)
  in
  let repeated =
    Network.add_node net parity (List.init 16 (fun j -> List.nth xs (j mod 3)))
  in
  List.iter
    (fun (nm, i) -> Network.set_output net nm i)
    [ ("gated", gated); ("masked", masked); ("repeated", repeated) ];
  let seen = Hashtbl.create 8 in
  Dontcare.sweep net (Network.topo_order net) (fun d ->
      let n = d.Dontcare.node in
      let _, exact = exact_dontcare net n in
      Alcotest.(check bool)
        (Printf.sprintf "node %d matches the oracle" n)
        true
        (Truth_table.equal exact d.Dontcare.dontcare);
      Hashtbl.replace seen n d.Dontcare.dontcare);
  let dc n = Hashtbl.find seen n in
  let all n = Truth_table.ones (dc n) = Truth_table.num_minterms (dc n) in
  Alcotest.(check bool) "dangling: every code" true (all dangling);
  Alcotest.(check bool) "unobserved constant: every code" true (all zero);
  Alcotest.(check int) "observed constant: no code" 0
    (Truth_table.ones (dc one));
  Alcotest.(check int) "wide node: x0 = 1 masks it" 32768
    (Truth_table.ones (dc wide));
  Alcotest.(check int) "repeated fanins: all but 8 codes unreachable"
    (65536 - 8) (Truth_table.ones (dc repeated))

let test_optimize_preserves_outputs () =
  let r = rng () in
  for _ = 1 to 5 do
    let net =
      Gen_comb.random r
        { Gen_comb.default_shape with Gen_comb.num_inputs = 6; num_gates = 15 }
    in
    let reference = Network.copy net in
    let changed = Dontcare.optimize net Dontcare.For_area in
    ignore changed;
    Alcotest.(check bool) "area dc-optimization is safe" true
      (networks_equivalent reference net)
  done

let test_optimize_power_preserves_and_helps () =
  let r = rng () in
  let improved = ref 0 in
  for _ = 1 to 5 do
    let net =
      Gen_comb.random r
        { Gen_comb.default_shape with Gen_comb.num_inputs = 6; num_gates = 15 }
    in
    let reference = Network.copy net in
    let input_probs = Probability.uniform_inputs net in
    let before =
      Activity.switched_capacitance net
        (Activity.zero_delay net ~input_probs)
    in
    let _ = Dontcare.optimize net (Dontcare.For_power input_probs) in
    Alcotest.(check bool) "power dc-optimization is safe" true
      (networks_equivalent reference net);
    let after =
      Activity.switched_capacitance net
        (Activity.zero_delay net ~input_probs)
    in
    if after < before -. 1e-9 then incr improved
  done;
  Alcotest.(check bool) "at least one network improved" true (!improved > 0)

let test_optimize_fanout_policy () =
  (* [19]: the fanout-aware policy is safe and no worse than the purely
     local one on total switched capacitance. *)
  let r = rng () in
  let better_or_equal = ref 0 and total = ref 0 in
  for _ = 1 to 4 do
    let shape =
      { Gen_comb.default_shape with Gen_comb.num_inputs = 6; num_gates = 14 }
    in
    let seed_net = Gen_comb.random r shape in
    let input_probs = Probability.uniform_inputs seed_net in
    let run policy =
      let net = Network.copy seed_net in
      let _ = Dontcare.optimize net policy in
      Alcotest.(check bool) "safe" true (networks_equivalent seed_net net);
      Activity.switched_capacitance net (Activity.zero_delay net ~input_probs)
    in
    let local = run (Dontcare.For_power input_probs) in
    let fanout = run (Dontcare.For_power_fanout input_probs) in
    incr total;
    if fanout <= local +. 1e-9 then incr better_or_equal
  done;
  Alcotest.(check bool) "fanout-aware wins or ties on most networks" true
    (!better_or_equal * 2 >= !total)

(* Pinned sweep results: structural hash and changed count per policy on
   the 4x4 array multiplier and five random networks, under skewed input
   probabilities.  Any drift in candidate generation, scoring or the tie
   rules shows up here. *)
let test_optimize_pinned () =
  let skewed net =
    Array.init (List.length (Network.inputs net)) (fun i ->
        float_of_int ((i mod 5) + 1) /. 6.0)
  in
  let nets () =
    ("mult4", (Circuits.array_multiplier 4).Circuits.net)
    :: List.map
         (fun seed ->
           ( Printf.sprintf "random%d" seed,
             Gen_comb.random (Lowpower.Rng.create seed)
               { Gen_comb.default_shape with
                 Gen_comb.num_inputs = 7; num_gates = 25 } ))
         [ 1; 2; 3; 4; 5 ]
  in
  let check pname policy expected =
    List.iter2
      (fun (name, net) (changed, hash) ->
        let label = pname ^ " " ^ name in
        Alcotest.(check int)
          (label ^ " changed") changed
          (Dontcare.optimize net (policy (skewed net)));
        Alcotest.(check int) (label ^ " hash") hash (Network.structural_hash net))
      (nets ()) expected
  in
  check "area" (fun _ -> Dontcare.For_area)
    [ (1, 3158953796908005560); (2, 4032628171119509199);
      (4, 3001935445618979530); (7, 782808375712217960);
      (10, 748408368190016416); (8, 2884930584803792015) ];
  check "power" (fun p -> Dontcare.For_power p)
    [ (0, 3391467124273209505); (2, 4032628171119509199);
      (5, 2884570717901828882); (8, 2325989303022510340);
      (10, 748408368190016416); (8, 4044701900101582533) ];
  check "fanout" (fun p -> Dontcare.For_power_fanout p)
    [ (0, 3391467124273209505); (0, 3343639800121800459);
      (2, 524069043105959499); (2, 726169439154810927);
      (2, 1308653854995681947); (2, 4527342947386879292) ]

(* Bad probability arrays are rejected up front, by both entry points and
   both power policies, and leave the network untouched. *)
let test_optimize_rejects_bad_probs () =
  let net = (Circuits.array_multiplier 3).Circuits.net in
  let npi = List.length (Network.inputs net) in
  let hash = Network.structural_hash net in
  let node =
    List.find (fun i -> not (Network.is_input net i)) (Network.topo_order net)
  in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (what, probs) ->
          List.iter
            (fun (entry, run) ->
              let label = Printf.sprintf "%s %s %s" entry pname what in
              expect_invalid_arg label (fun () -> run (policy probs));
              Alcotest.(check int) (label ^ " leaves net") hash
                (Network.structural_hash net))
            [ ("optimize", fun p -> ignore (Dontcare.optimize net p));
              ("optimize_node",
               fun p -> ignore (Dontcare.optimize_node net p node)) ])
        [ ("short", Array.make (npi - 1) 0.5);
          ("long", Array.make (npi + 1) 0.5);
          ("p=1.5", Array.init npi (fun i -> if i = 1 then 1.5 else 0.5));
          ("p=nan", Array.init npi (fun i -> if i = 2 then Float.nan else 0.5)) ])
    [ ("power", fun p -> Dontcare.For_power p);
      ("power+fanout", fun p -> Dontcare.For_power_fanout p) ]

(* --- Factor --- *)

let sop_of_string_pairs lits = lits (* readability alias *)

let test_division () =
  ignore sop_of_string_pairs;
  (* f = a c + a d + b c + b d; f / (c + d) = a + b, remainder 0. *)
  let a = Factor.lit_pos 0 and b = Factor.lit_pos 1 in
  let c = Factor.lit_pos 2 and d = Factor.lit_pos 3 in
  let f = [ [ a; c ]; [ a; d ]; [ b; c ]; [ b; d ] ] in
  let divisor = [ [ c ]; [ d ] ] in
  let q, r = Factor.divide f divisor in
  Alcotest.(check bool) "quotient a + b" true
    (List.sort compare q = [ [ a ]; [ b ] ]);
  Alcotest.(check bool) "no remainder" true (r = [])

let test_kernels_found () =
  let a = Factor.lit_pos 0 and b = Factor.lit_pos 1 in
  let c = Factor.lit_pos 2 and d = Factor.lit_pos 3 in
  let f = [ [ a; c ]; [ a; d ]; [ b; c ]; [ b; d ] ] in
  let ks = List.map snd (Factor.kernels f) in
  Alcotest.(check bool) "kernel c + d found" true
    (List.exists (fun k -> List.sort compare k = [ [ c ]; [ d ] ]) ks);
  Alcotest.(check bool) "kernel a + b found" true
    (List.exists (fun k -> List.sort compare k = [ [ a ]; [ b ] ]) ks)

let test_extract_reduces_literals () =
  let a = Factor.lit_pos 0 and b = Factor.lit_pos 1 in
  let c = Factor.lit_pos 2 and d = Factor.lit_pos 3 in
  let f = [ [ a; c ]; [ a; d ]; [ b; c ]; [ b; d ] ] in
  let ext = Factor.extract Factor.Literals ~nvars:4 [ ("f", f) ] in
  Alcotest.(check bool) "extraction happened" true (ext.Factor.defs <> []);
  Alcotest.(check bool) "cost reduced" true
    (Factor.total_cost Factor.Literals ext < 8.0)

let test_extract_network_equivalent () =
  let r = rng () in
  let funcs = Gen_comb.random_sop_set r ~nvars:6 ~nfuncs:3 ~cubes:6 ~max_lits:3 in
  let flat = Factor.extract ~max_new:0 Factor.Literals ~nvars:6 funcs in
  let ext = Factor.extract Factor.Literals ~nvars:6 funcs in
  Alcotest.(check bool) "factored network equals flat network" true
    (networks_equivalent (Factor.to_network flat) (Factor.to_network ext))

let test_activity_extract_prefers_quiet_signals () =
  (* Two structurally identical kernels: one over quiet variables (p near
     0), one over busy ones (p = 0.5).  Plain literal count sees a tie;
     the activity-weighted cost of [35] must pick the BUSY kernel: that
     extraction eliminates duplicated high-activity literals and replaces
     them with a single, less active intermediate signal, which is the
     larger switched-capacitance saving. *)
  let q1 = Factor.lit_pos 0 and q2 = Factor.lit_pos 1 in
  let b1 = Factor.lit_pos 2 and b2 = Factor.lit_pos 3 in
  let x = Factor.lit_pos 4 and y = Factor.lit_pos 5 in
  let funcs =
    [
      ("f1", [ [ x; q1 ]; [ x; q2 ] ]);
      ("f2", [ [ y; q1 ]; [ y; q2 ] ]);
      ("g1", [ [ x; b1 ]; [ x; b2 ] ]);
      ("g2", [ [ y; b1 ]; [ y; b2 ] ]);
    ]
  in
  let prob = function 0 | 1 -> 0.02 | _ -> 0.5 in
  let weight v = 2.0 *. prob v *. (1.0 -. prob v) in
  let cost = Factor.Activity { weight; prob } in
  let ext = Factor.extract ~max_new:1 cost ~nvars:6 funcs in
  match ext.Factor.defs with
  | [ (_, k) ] ->
    let vars =
      List.sort_uniq compare (List.map Factor.lit_var (List.concat k))
    in
    Alcotest.(check (list int)) "busy kernel chosen" [ 2; 3 ] vars
  | _ -> Alcotest.fail "expected exactly one extraction"

let prop_sop_expr_roundtrip =
  prop ~count:100 "sop <-> expr roundtrip"
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (list_size (int_range 1 3) (int_bound 7)))
    (fun sop ->
      (* Deduplicate conflicting literals within a cube first. *)
      let clean =
        List.map
          (fun cube ->
            List.sort_uniq compare
              (List.filter (fun l -> not (List.mem (l lxor 1) cube)) cube))
          sop
      in
      let e = Factor.expr_of_sop clean in
      match Factor.sop_of_expr e with
      | _ -> true
      | exception Invalid_argument _ -> false)

(* --- Cleanup --- *)

let test_cleanup_constants () =
  let net = Network.create () in
  let a = Network.add_input net in
  let one = Network.add_node net Expr.tru [] in
  let g = Network.add_node net Expr.(var 0 &&& var 1) [ a; one ] in
  Network.set_output net "z" g;
  let reference = Network.copy net in
  let changes = Cleanup.run net in
  Alcotest.(check bool) "changed" true (changes > 0);
  Alcotest.(check bool) "equivalent" true (networks_equivalent reference net);
  (* z = a & 1 = a: the AND collapses to a buffer and the constant dies. *)
  Alcotest.(check bool) "constant swept" true
    (List.for_all
       (fun i ->
         Network.is_input net i
         || not (Expr.equal (Network.func net i) Expr.tru))
       (Network.node_ids net))

let test_cleanup_double_inverter () =
  let net = Network.create () in
  let a = Network.add_input net in
  let n1 = Network.add_node net (Expr.not_ (Expr.var 0)) [ a ] in
  let n2 = Network.add_node net (Expr.not_ (Expr.var 0)) [ n1 ] in
  let g = Network.add_node net Expr.(var 0 ||| var 1) [ n2; a ] in
  Network.set_output net "z" g;
  let reference = Network.copy net in
  ignore (Cleanup.run net);
  Alcotest.(check bool) "equivalent" true (networks_equivalent reference net);
  (* The pair of inverters is bypassed and swept. *)
  Alcotest.(check int) "only the OR remains" 1 (Network.node_count net)

let test_cleanup_idempotent_on_clean_nets () =
  let net = (Circuits.ripple_adder 4).Circuits.net in
  Alcotest.(check int) "nothing to do" 0 (Cleanup.run net)

let test_cleanup_random_safe () =
  let r = rng () in
  for _ = 1 to 5 do
    let net = Gen_comb.random r Gen_comb.default_shape in
    let reference = Network.copy net in
    ignore (Cleanup.run net);
    Alcotest.(check bool) "cleanup safe" true (networks_equivalent reference net)
  done

(* --- Balance --- *)

let test_balance_removes_imbalance () =
  let net = Gen_comb.deep_chain ~width:4 ~depth:8 in
  Alcotest.(check bool) "imbalanced before" true (Balance.imbalance net > 0);
  let balanced, inserted = Balance.balance net in
  Alcotest.(check int) "balanced after" 0 (Balance.imbalance balanced);
  Alcotest.(check bool) "buffers inserted" true (inserted > 0)

let test_balance_preserves_function_and_depth () =
  let net = (Circuits.ripple_adder 4).Circuits.net in
  let balanced, _ = Balance.balance net in
  Alcotest.(check bool) "function preserved" true
    (networks_equivalent net balanced);
  (* Unit-delay critical path must not grow: buffers only pad slack. *)
  let lvl n =
    List.fold_left
      (fun acc (_, o) -> max acc (Network.level n o))
      0 (Network.outputs n)
  in
  Alcotest.(check int) "critical level unchanged" (lvl net) (lvl balanced)

let test_balance_reduces_glitches () =
  let net = (Circuits.array_multiplier 4).Circuits.net in
  let balanced, _ = Balance.balance net in
  let stim = Stimulus.random (rng ()) ~width:8 ~length:300 () in
  let before = Event_sim.run net Event_sim.Unit_delay stim in
  let after = Event_sim.run balanced Event_sim.Unit_delay stim in
  Alcotest.(check bool) "spurious fraction falls" true
    (Event_sim.spurious_fraction after < Event_sim.spurious_fraction before)

let test_balance_budget_respected () =
  let net = Gen_comb.deep_chain ~width:4 ~depth:10 in
  let _, inserted = Balance.balance ~budget:3 net in
  Alcotest.(check bool) "at most 3" true (inserted <= 3)

let test_selective_threshold () =
  let net = Gen_comb.deep_chain ~width:4 ~depth:10 in
  let all, n_all = Balance.balance net in
  let some, n_some = Balance.selective net ~threshold:4 in
  Alcotest.(check bool) "selective never inserts more" true (n_some <= n_all);
  Alcotest.(check int) "full balancing complete" 0 (Balance.imbalance all);
  (* Small gaps below the threshold deliberately remain. *)
  Alcotest.(check bool) "selective leaves residual imbalance" true
    (Balance.imbalance some > 0)

let suite =
  [
    quick "library cells self-consistent" test_cells_consistent;
    quick "cell lookup" test_cell_lookup;
    quick "pattern function" test_pattern_func;
    quick "decompose equivalent (adder)" test_decompose_equivalent;
    quick "decompose equivalent (multiplier/xor)" test_decompose_xor_shape;
    quick "power decomposition equivalent" test_decompose_for_power_equivalent;
    quick "power decomposition lowers activity" test_decompose_for_power_lowers_activity;
    quick "decompose rejects constants" test_decompose_rejects_constants;
    quick "area mapping equivalent" test_map_area_equivalent;
    quick "delay mapping equivalent" test_map_delay_equivalent;
    quick "power mapping equivalent" test_map_power_equivalent;
    quick "objectives optimize their own metric" test_map_area_beats_delay_on_area;
    quick "power mapping wins switched capacitance" test_map_power_beats_area_on_power;
    quick "mapper uses complex cells" test_map_uses_complex_cells;
    quick "mapper rejects raw networks" test_map_rejects_non_subject;
    quick "mapper rejects inadequate library" test_map_custom_library_failure;
    quick "satisfiability don't-cares" test_sdc_detected;
    quick "observability don't-cares" test_odc_detected;
    quick "dc optimization preserves outputs" test_optimize_preserves_outputs;
    quick "power dc optimization safe and useful" test_optimize_power_preserves_and_helps;
    quick "fanout-aware dc policy (paper [19])" test_optimize_fanout_policy;
    quick "dc optimization results pinned" test_optimize_pinned;
    quick "dc sweep session matches fresh managers" test_sweep_matches_fresh;
    quick "dc sweep matches the exact oracle" test_sweep_matches_exact;
    quick "dc sweep edge nodes match the oracle" test_sweep_edge_nodes;
    quick "dc optimization rejects bad probabilities" test_optimize_rejects_bad_probs;
    quick "algebraic division" test_division;
    quick "kernels found" test_kernels_found;
    quick "extraction reduces literals" test_extract_reduces_literals;
    quick "extraction network equivalent" test_extract_network_equivalent;
    quick "activity extraction prefers quiet kernels" test_activity_extract_prefers_quiet_signals;
    prop_sop_expr_roundtrip;
    quick "cleanup constant propagation" test_cleanup_constants;
    quick "cleanup double inverters" test_cleanup_double_inverter;
    quick "cleanup idempotent on clean nets" test_cleanup_idempotent_on_clean_nets;
    quick "cleanup safe on random nets" test_cleanup_random_safe;
    quick "balance removes imbalance" test_balance_removes_imbalance;
    quick "balance preserves function and depth" test_balance_preserves_function_and_depth;
    quick "balance reduces glitching" test_balance_reduces_glitches;
    quick "balance budget respected" test_balance_budget_respected;
    quick "selective balancing inserts fewer buffers" test_selective_threshold;
  ]
