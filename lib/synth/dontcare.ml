type dc = {
  node : Network.id;
  local_onset : Truth_table.t;
  dontcare : Truth_table.t;
}

type policy =
  | For_area
  | For_power of float array
  | For_power_fanout of float array

let global_odc net man n ~free_var =
  let free =
    Network.global_bdds_with net man ~node:n (fun () -> Bdd.var man free_var)
  in
  List.fold_left
    (fun acc (_, o) ->
      let sens = Bdd.boolean_difference man (Hashtbl.find free o) free_var in
      Bdd.and_ man acc (Bdd.not_ man sens))
    (Bdd.tru man) (Network.outputs net)

(* The don't-cares of [n] together with the manager and global table they
   were computed in, so candidates can be scored without rebuilding them. *)
let analyze net n =
  if Network.is_input net n then invalid_arg "Dontcare.compute: input node";
  let fanins = Network.fanins net n in
  let k = List.length fanins in
  if k > 16 then invalid_arg "Dontcare.compute: more than 16 fanins";
  let npi = List.length (Network.inputs net) in
  let man = Bdd.manager () in
  let globals = Network.global_bdds net man in
  (* Variables: 0..npi-1 are primary inputs; npi..npi+k-1 stand for the
     fanin values y; npi+k is the free variable z. *)
  let yvar j = npi + j in
  let pis = List.init npi (fun i -> i) in
  (* Consistency relation C(x, y). *)
  let consistency =
    Bdd.and_list man
      (List.mapi
         (fun j fi ->
           Bdd.xnor man (Bdd.var man (yvar j)) (Hashtbl.find globals fi))
         fanins)
  in
  let sdc = Bdd.not_ man (Bdd.exists man pis consistency) in
  (* Observability: outputs as functions of x and z. *)
  let odc_global = global_odc net man n ~free_var:(npi + k) in
  (* y is a local ODC iff every x consistent with y is globally
     unobservable; the fused relational product skips the intermediate
     consistency∧observable conjunction. *)
  let odc_local =
    Bdd.not_ man
      (Bdd.and_exists man pis consistency (Bdd.not_ man odc_global))
  in
  let dc_bdd = Bdd.or_ man sdc odc_local in
  let tt_of bdd =
    Truth_table.of_fun k (fun code ->
        Bdd.eval bdd (fun v ->
            if v >= npi && v < npi + k then code land (1 lsl (v - npi)) <> 0
            else false))
  in
  let local_onset = Truth_table.of_expr k (Network.func net n) in
  (man, globals, { node = n; local_onset; dontcare = tt_of dc_bdd })

let compute net n =
  let _, _, d = analyze net n in
  d

let minimized_candidates d =
  let care = Truth_table.not_ d.dontcare in
  let onset_care = Truth_table.and_ d.local_onset care in
  let dc_cover = Cover.of_truth_table d.dontcare in
  (* Three assignments of the don't-cares: free (minimizer decides), all to
     0 (low probability bias), all to 1 (high probability bias). *)
  let free_min =
    Cover.minimize ~dc:dc_cover (Cover.of_truth_table onset_care)
  in
  let zero_min = Cover.minimize (Cover.of_truth_table onset_care) in
  let one_min =
    Cover.minimize
      (Cover.of_truth_table (Truth_table.or_ d.local_onset d.dontcare))
  in
  [ free_min; zero_min; one_min ]

let check_input_probs net = function
  | For_area -> ()
  | For_power probs | For_power_fanout probs ->
    Probability.check_probs net probs

let activity man probs f =
  let p = Bdd.probability man (fun v -> probs.(v)) f in
  2.0 *. p *. (1.0 -. p)

(* Capacitance-weighted activity of [n] and its transitive fanout, priced
   on a global table in which [n] holds the function under test. *)
let tfo_cost net man n probs =
  let fanout = Hashtbl.create 16 in
  let rec mark i =
    if not (Hashtbl.mem fanout i) then begin
      Hashtbl.replace fanout i ();
      List.iter mark (Network.fanouts net i)
    end
  in
  mark n;
  fun table ->
    Hashtbl.fold
      (fun i () acc ->
        let p =
          Bdd.probability man (fun v -> probs.(v)) (Hashtbl.find table i)
        in
        acc +. (Network.cap net i *. 2.0 *. p *. (1.0 -. p)))
      fanout 0.0

let optimize_node_unchecked net policy n =
  if Network.is_input net n || List.length (Network.fanins net n) > 16 then
    false
  else begin
    let man, globals, d = analyze net n in
    let global_of cover =
      Network.expr_bdd man
        (Array.of_list (List.map (Hashtbl.find globals) (Network.fanins net n)))
        (Cover.to_expr cover)
    in
    let current_lits = Expr.literal_count (Network.func net n) in
    (* [score] prices a candidate; [improves s e] decides whether the
       winner, of score [s] and expression [e], beats the incumbent. *)
    let score, improves =
      match policy with
      | For_area ->
        ( (fun c -> float_of_int (Cover.literal_count c)),
          fun _ e -> Expr.literal_count e < current_lits )
      | For_power probs ->
        let old = activity man probs (Hashtbl.find globals n) in
        ( (fun c -> activity man probs (global_of c)),
          fun s e ->
            s < old -. 1e-12
            || (Float.abs (s -. old) <= 1e-12
               && Expr.literal_count e < current_lits) )
      | For_power_fanout probs ->
        let cost = tfo_cost net man n probs in
        let with_cand c =
          Network.global_bdds_with net man ~node:n (fun () -> global_of c)
        in
        ( (fun c -> cost (with_cand c)),
          fun s _ -> s < cost globals -. 1e-12 )
    in
    let better (s, l, _) (bs, bl, _) =
      s < bs -. 1e-12 || (Float.abs (s -. bs) <= 1e-12 && l < bl)
    in
    let scored =
      List.map
        (fun c -> (score c, Cover.literal_count c, c))
        (minimized_candidates d)
    in
    let s, _, cover =
      List.fold_left
        (fun best x -> if better x best then x else best)
        (List.hd scored) (List.tl scored)
    in
    let expr = Cover.to_expr cover in
    if improves s expr && not (Expr.equal expr (Network.func net n)) then begin
      Network.replace_func net n expr (Network.fanins net n);
      true
    end
    else false
  end

(* The don't-care computation guarantees equivalence by construction; the
   [?verify] argument re-proves it independently (miter + SAT, or BDDs),
   the safety net for bugs in the DC machinery itself. *)
let checked ?verify ~pass net run =
  let mode = Verify.resolve verify in
  let before = if mode = `Off then None else Some (Network.copy net) in
  let result = run () in
  (match before with
  | Some b -> Verify.equivalent ~mode ~pass b net
  | None -> ());
  result

let optimize_node ?verify net policy n =
  check_input_probs net policy;
  checked ?verify ~pass:"Dontcare.optimize_node" net (fun () ->
      optimize_node_unchecked net policy n)

let optimize ?verify net policy =
  check_input_probs net policy;
  checked ?verify ~pass:"Dontcare.optimize" net (fun () ->
      List.fold_left
        (fun changed i ->
          if Network.is_input net i then changed
          else if optimize_node_unchecked net policy i then changed + 1
          else changed)
        0 (Network.topo_order net))
