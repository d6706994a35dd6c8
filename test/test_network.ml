(* Tests for Network and the datapath circuit generators. *)

open Test_util

let tiny_net () =
  (* z = (a & b) | ~c *)
  let net = Network.create () in
  let a = Network.add_input ~name:"a" net in
  let b = Network.add_input ~name:"b" net in
  let c = Network.add_input ~name:"c" net in
  let g1 = Network.add_node ~name:"g1" net Expr.(var 0 &&& var 1) [ a; b ] in
  let g2 = Network.add_node ~name:"g2" net (Expr.not_ (Expr.var 0)) [ c ] in
  let g3 = Network.add_node ~name:"g3" net Expr.(var 0 ||| var 1) [ g1; g2 ] in
  Network.set_output net "z" g3;
  (net, a, b, c, g1, g2, g3)

let test_network_eval () =
  let net, _, _, _, _, _, _ = tiny_net () in
  let check inputs expected =
    Alcotest.(check (list (pair string bool)))
      "outputs" [ ("z", expected) ]
      (Network.eval_outputs net inputs)
  in
  check [| true; true; true |] true;
  check [| false; true; true |] false;
  check [| false; false; false |] true

let test_network_structure () =
  let net, a, b, _, g1, _, g3 = tiny_net () in
  Alcotest.(check int) "logic nodes" 3 (Network.node_count net);
  Alcotest.(check (list int)) "fanins of g1" [ a; b ] (Network.fanins net g1);
  Alcotest.(check (list int)) "fanouts of g1" [ g3 ] (Network.fanouts net g1);
  Alcotest.(check bool) "a is input" true (Network.is_input net a);
  Alcotest.(check int) "input index" 0 (Network.input_index net a);
  Alcotest.(check int) "literal count" 5 (Network.literal_count net)

let test_network_arity_checks () =
  let net = Network.create () in
  let a = Network.add_input net in
  expect_invalid_arg "unknown fanin" (fun () ->
      Network.add_node net (Expr.var 0) [ 99 ]);
  expect_invalid_arg "var beyond fanins" (fun () ->
      Network.add_node net (Expr.var 1) [ a ]);
  expect_invalid_arg "bad eval arity" (fun () -> Network.eval net [| true; true |])

let test_network_cycle_detection () =
  let net, _, _, _, g1, g2, g3 = tiny_net () in
  (* Try to make g1 depend on g3: creates a cycle, must be refused. *)
  expect_invalid_arg "cycle refused" (fun () ->
      Network.replace_func net g1 Expr.(var 0 &&& var 1) [ g2; g3 ]);
  (* The network must still be intact. *)
  Alcotest.(check (list (pair string bool)))
    "still works" [ ("z", true) ]
    (Network.eval_outputs net [| true; true; true |])

let test_network_levels_and_delay () =
  let net, _, _, _, g1, _, g3 = tiny_net () in
  Alcotest.(check int) "level g1" 1 (Network.level net g1);
  Alcotest.(check int) "level g3" 2 (Network.level net g3);
  check_close "critical delay" 2.0 (Network.critical_delay net);
  (* Lengthen the AND: the inverter branch now has slack. *)
  Network.set_delay net g1 2.0;
  check_close "critical delay stretched" 3.0 (Network.critical_delay net);
  let slacks = Network.slacks net () in
  check_close "critical node slack" 0.0 (Hashtbl.find slacks g3);
  check_close "critical branch slack" 0.0 (Hashtbl.find slacks g1);
  let g2 = List.nth (Network.node_ids net) 4 in
  check_close "short path slack" 1.0 (Hashtbl.find slacks g2)

let test_network_sweep () =
  let net, _, _, _, _, _, _ = tiny_net () in
  let a = List.hd (Network.inputs net) in
  let dead = Network.add_node net (Expr.not_ (Expr.var 0)) [ a ] in
  ignore dead;
  Alcotest.(check int) "one node swept" 1 (Network.sweep net);
  Alcotest.(check int) "three remain" 3 (Network.node_count net)

let test_network_global_bdd () =
  let net, _, _, _, _, _, _ = tiny_net () in
  let man = Bdd.manager () in
  let z = Network.output_bdd net man "z" in
  let expect = Bdd.of_expr man Expr.(var 0 &&& var 1 ||| not_ (var 2)) in
  Alcotest.(check bool) "global function" true (Bdd.equal z expect)

let test_network_copy_isolated () =
  let net, _, _, _, g1, _, _ = tiny_net () in
  let dup = Network.copy net in
  Network.replace_func dup g1 Expr.(var 0 ||| var 1)
    (Network.fanins dup g1);
  (* Original unchanged. *)
  Alcotest.(check (list (pair string bool)))
    "original intact" [ ("z", false) ]
    (Network.eval_outputs net [| true; false; true |]);
  Alcotest.(check (list (pair string bool)))
    "copy changed" [ ("z", true) ]
    (Network.eval_outputs dup [| true; false; true |])

(* --- Datapath circuits vs integer arithmetic --- *)

let check_datapath name build op n iters =
  let dp = build n in
  let r = rng () in
  for _ = 1 to iters do
    let x = Lowpower.Rng.int r (1 lsl n) and y = Lowpower.Rng.int r (1 lsl n) in
    let stim = Circuits.operand_stimulus [ (x, y) ] ~width:n in
    let outs = Network.eval_outputs dp.Circuits.net (List.hd stim) in
    let got = Circuits.output_word outs ~prefix:"out" in
    if got <> op x y then
      Alcotest.failf "%s: %d op %d = %d, circuit says %d" name x y (op x y) got
  done

let test_ripple_adder () =
  check_datapath "ripple" Circuits.ripple_adder ( + ) 6 200

let test_carry_select_adder () =
  check_datapath "carry-select"
    (Circuits.carry_select_adder ~block:3)
    ( + ) 7 200

let test_array_multiplier () =
  check_datapath "multiplier" Circuits.array_multiplier ( * ) 5 200

let test_carry_lookahead_adder () =
  check_datapath "cla" Circuits.carry_lookahead_adder ( + ) 8 200;
  check_datapath "cla block 3" (Circuits.carry_lookahead_adder ~block:3) ( + ) 7 200

let test_carry_save_multiplier () =
  check_datapath "carry-save multiplier" Circuits.carry_save_multiplier ( * ) 5 200

let test_multipliers_agree () =
  let a = (Circuits.array_multiplier 4).Circuits.net in
  let b = (Circuits.carry_save_multiplier 4).Circuits.net in
  Alcotest.(check bool) "equivalent" true (networks_equivalent a b)

let test_carry_save_less_glitchy () =
  (* The balanced carry-save tree glitches less than the ripple array --
     the structural point behind [25]. *)
  let stim = Stimulus.random (rng ()) ~width:10 ~length:300 () in
  let g net = Event_sim.spurious_fraction (Event_sim.run net Event_sim.Unit_delay stim) in
  Alcotest.(check bool) "csave < array" true
    (g (Circuits.carry_save_multiplier 5).Circuits.net
    < g (Circuits.array_multiplier 5).Circuits.net)

let test_mux_compare_semantics () =
  let net, _sel = Circuits.mux_compare 4 in
  let r = rng () in
  for _ = 1 to 200 do
    let a = Lowpower.Rng.int r 16 and b = Lowpower.Rng.int r 16 in
    let sel = Lowpower.Rng.bool r in
    let vec = Array.init 9 (fun k ->
        if k = 0 then sel
        else if k <= 4 then a land (1 lsl (k - 1)) <> 0
        else b land (1 lsl (k - 5)) <> 0)
    in
    let expect = if sel then a > b else a = b in
    Alcotest.(check (list (pair string bool))) "mux compare"
      [ ("z", expect) ] (Network.eval_outputs net vec)
  done

let test_comparator () =
  check_datapath "comparator" Circuits.comparator
    (fun a b -> if a > b then 1 else 0)
    6 300

let test_comparator_exhaustive_small () =
  let dp = Circuits.comparator 3 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let stim = Circuits.operand_stimulus [ (a, b) ] ~width:3 in
      let outs = Network.eval_outputs dp.Circuits.net (List.hd stim) in
      Alcotest.(check int)
        (Printf.sprintf "%d > %d" a b)
        (if a > b then 1 else 0)
        (Circuits.output_word outs ~prefix:"out")
    done
  done

let test_equality () =
  check_datapath "equality" Circuits.equality
    (fun a b -> if a = b then 1 else 0)
    6 300

let test_parity_tree () =
  let net, _ = Circuits.parity_tree 7 in
  let r = rng () in
  for _ = 1 to 100 do
    let code = Lowpower.Rng.int r 128 in
    let vec = Array.init 7 (fun k -> code land (1 lsl k) <> 0) in
    let expect = Array.fold_left (fun p b -> if b then not p else p) false vec in
    Alcotest.(check (list (pair string bool)))
      "parity" [ ("parity", expect) ]
      (Network.eval_outputs net vec)
  done

let test_adders_agree () =
  (* Ripple and carry-select compute the same function. *)
  let a = (Circuits.ripple_adder 5).Circuits.net in
  let b = (Circuits.carry_select_adder ~block:2 5).Circuits.net in
  Alcotest.(check bool) "equivalent" true (networks_equivalent a b)

let test_width_validation () =
  expect_invalid_arg "zero width" (fun () -> Circuits.ripple_adder 0);
  expect_invalid_arg "too wide multiplier" (fun () ->
      Circuits.array_multiplier 16)

(* --- structural hash --- *)

let random_net seed =
  Gen_comb.random (Lowpower.Rng.create seed)
    { Gen_comb.num_inputs = 6; num_gates = 20; max_fanin = 3;
      output_fraction = 0.25 }

let test_structural_hash_copy_stable () =
  for seed = 1 to 25 do
    let net = random_net seed in
    Alcotest.(check int)
      (Printf.sprintf "copy preserves hash (seed %d)" seed)
      (Network.structural_hash net)
      (Network.structural_hash (Network.copy net))
  done

let test_structural_hash_order_insensitive () =
  (* The same structure declared in two different node orders (hence with
     different ids) must hash identically. *)
  let forward () =
    let net = Network.create () in
    let a = Network.add_input ~name:"a" net in
    let b = Network.add_input ~name:"b" net in
    let g1 = Network.add_node net Expr.(var 0 &&& var 1) [ a; b ] in
    let g2 = Network.add_node net Expr.(var 0 ||| var 1) [ a; b ] in
    Network.set_output net "x" g1;
    Network.set_output net "y" g2;
    net
  in
  let reversed () =
    let net = Network.create () in
    let a = Network.add_input ~name:"a" net in
    let b = Network.add_input ~name:"b" net in
    let g2 = Network.add_node net Expr.(var 0 ||| var 1) [ a; b ] in
    let g1 = Network.add_node net Expr.(var 0 &&& var 1) [ a; b ] in
    Network.set_output net "y" g2;
    Network.set_output net "x" g1;
    net
  in
  Alcotest.(check int) "declaration order does not matter"
    (Network.structural_hash (forward ()))
    (Network.structural_hash (reversed ()))

let test_structural_hash_distinct_nets () =
  let tbl = Hashtbl.create 256 in
  for seed = 1 to 200 do
    Hashtbl.replace tbl (Network.structural_hash (random_net seed)) ()
  done;
  Alcotest.(check int) "200 random nets, 200 distinct hashes" 200
    (Hashtbl.length tbl)

let test_structural_hash_mutation_sensitive () =
  (* 200+ random mutations across structure, annotations and output
     bindings: every one must change the hash. *)
  let r = rng () in
  let collisions = ref 0 and trials = ref 0 in
  for seed = 1 to 60 do
    let base = random_net seed in
    let h0 = Network.structural_hash base in
    let logic =
      List.filter (fun i -> not (Network.is_input base i))
        (Network.topo_order base)
    in
    let mutations =
      [
        (fun net ->
          let n = List.nth logic (Lowpower.Rng.int r (List.length logic)) in
          Network.replace_func net n
            (Expr.not_ (Network.func net n))
            (Network.fanins net n));
        (fun net ->
          let n = List.nth logic (Lowpower.Rng.int r (List.length logic)) in
          Network.set_cap net n (Network.cap net n +. 0.5));
        (fun net ->
          let n = List.nth logic (Lowpower.Rng.int r (List.length logic)) in
          Network.set_delay net n (Network.delay net n +. 1.0));
        (fun net ->
          let name, _ = List.hd (Network.outputs net) in
          let n = List.nth logic (Lowpower.Rng.int r (List.length logic)) in
          Network.set_output net (name ^ "'") n);
      ]
    in
    List.iter
      (fun mutate ->
        let net = Network.copy base in
        mutate net;
        incr trials;
        if Network.structural_hash net = h0 then incr collisions)
      mutations
  done;
  Alcotest.(check bool) "at least 200 mutations tried" true (!trials >= 200);
  Alcotest.(check int) "no mutation collides" 0 !collisions

(* Every cache key is built from these hashes, so a drifted mixer constant
   would silently re-key every memo while the collision tests above still
   pass.  The values are those of the original per-module mixers. *)
let test_structural_hash_pinned () =
  Alcotest.(check int) "array multiplier 4x4" 3391467124273209505
    (Network.structural_hash (Circuits.array_multiplier 4).Circuits.net);
  Alcotest.(check int) "FIR-8 datapath" 3318539391217825457
    (Dfg.structural_hash (Gen_dfg.fir ~taps:8 ()));
  Alcotest.(check int) "trace fingerprint" 2499145489511031072
    (Annotation.trace_fingerprint
       (Stimulus.random (Lowpower.Rng.create 3) ~width:8 ~length:100 ()))

let suite =
  [
    quick "network evaluation" test_network_eval;
    quick "network structure accessors" test_network_structure;
    quick "network arity checks" test_network_arity_checks;
    quick "network cycle detection" test_network_cycle_detection;
    quick "network levels and slack" test_network_levels_and_delay;
    quick "network sweep" test_network_sweep;
    quick "network global bdd" test_network_global_bdd;
    quick "network copy isolation" test_network_copy_isolated;
    quick "ripple adder" test_ripple_adder;
    quick "carry-select adder" test_carry_select_adder;
    quick "array multiplier" test_array_multiplier;
    quick "carry-lookahead adder" test_carry_lookahead_adder;
    quick "carry-save multiplier" test_carry_save_multiplier;
    quick "multiplier implementations agree" test_multipliers_agree;
    quick "carry-save multiplier less glitchy" test_carry_save_less_glitchy;
    quick "mux_compare semantics" test_mux_compare_semantics;
    quick "comparator random" test_comparator;
    quick "comparator exhaustive 3-bit" test_comparator_exhaustive_small;
    quick "equality" test_equality;
    quick "parity tree" test_parity_tree;
    quick "adder implementations agree" test_adders_agree;
    quick "width validation" test_width_validation;
    quick "structural hash copy-stable" test_structural_hash_copy_stable;
    quick "structural hash order-insensitive"
      test_structural_hash_order_insensitive;
    quick "structural hash distinct nets" test_structural_hash_distinct_nets;
    quick "structural hash mutation-sensitive"
      test_structural_hash_mutation_sensitive;
    quick "structural hash pinned values" test_structural_hash_pinned;
  ]
