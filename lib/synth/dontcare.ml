type dc = {
  node : Network.id;
  local_onset : Truth_table.t;
  dontcare : Truth_table.t;
}

type policy =
  | For_area
  | For_power of float array
  | For_power_fanout of float array

(* The product of [not (d o / d z)] over the outputs [o], with z free in
   [n]'s place, taken as [o|z=0 xnor o|z=1]: the fanout cone is rebuilt
   once with each constant in [n]'s place, which gives both cofactors of
   the z-cone without building functions of z.  Outputs outside the cone
   cannot see z and leave the product unchanged. *)
let global_odc net man globals n =
  let cone f = Network.global_cone net man globals ~node:n f in
  let lo = cone (Bdd.fls man) and hi = cone (Bdd.tru man) in
  List.fold_left
    (fun acc (_, o) ->
      match Hashtbl.find_opt lo o with
      | None -> acc
      | Some f0 -> Bdd.and_ man acc (Bdd.xnor man f0 (Hashtbl.find hi o)))
    (Bdd.tru man) (Network.outputs net)

(* One BDD session per sweep: a manager holding the global function of
   every node of the network as it currently is.  Variables: 0..npi-1 are
   the primary inputs, in the interleaved order; the per-node fanin
   variables y are appended below them in index order, exactly as in a
   fresh manager, so every BDD is the one a fresh per-node analysis would
   build.

   Next to it sits a value plane: [vals.(w).(i)] is word [w] of node
   [i]'s values under fixed random input words, 63 vectors per word,
   indexed by node id.  A lane is a real input vector, so the fanin code
   it shows at a node is never a satisfiability don't-care, and a lane
   where complementing the node changes an output proves that code
   observable.  [analyze] uses such witnesses to skip the BDD
   observability computation where they already settle it. *)
type session = {
  net : Network.t;
  man : Bdd.man;
  globals : (Network.id, Bdd.t) Hashtbl.t;
  npi : int;
  mutable compacted : int; (* live nodes after the last compaction *)
  vals : int array array;
  eval_fn : (int array -> int) array;
  is_output : bool array;
  saved : int array; (* scratch: cone values before a flip *)
  mark : int array; (* cone traversal stamps *)
  mutable stamp : int;
}

(* Compact once the store holds this many times what it held after the
   last compaction. *)
let compact_factor = 2

(* 4 x 63 = 252 simulated vectors, from a fixed seed. *)
let plane_words = 4
let plane_seed = 0xdc5eed

let compile_node net n =
  Bitsim.compile_word
    (Array.of_list (Network.fanins net n))
    (Network.func net n)

let open_session net =
  let man = Bdd.manager () in
  let globals = Network.global_bdds net man in
  let size = 1 + List.fold_left max (-1) (Network.node_ids net) in
  let logic =
    List.filter (fun i -> not (Network.is_input net i)) (Network.topo_order net)
  in
  let eval_fn = Array.make size (fun (_ : int array) -> 0) in
  List.iter (fun i -> eval_fn.(i) <- compile_node net i) logic;
  let rng = Lowpower.Rng.create plane_seed in
  let vals =
    Array.init plane_words (fun _ ->
        let p = Array.make size 0 in
        List.iter
          (fun i -> p.(i) <- Lowpower.Rng.bernoulli_word rng 0.5)
          (Network.inputs net);
        List.iter (fun i -> p.(i) <- eval_fn.(i) p) logic;
        p)
  in
  let is_output = Array.make size false in
  List.iter (fun (_, o) -> is_output.(o) <- true) (Network.outputs net);
  { net; man; globals; npi = List.length (Network.inputs net);
    compacted = Bdd.node_count man; vals; eval_fn; is_output;
    saved = Array.make size 0; mark = Array.make size 0; stamp = 0 }

(* [n] and its transitive fanout in topological order, [n] first: the
   reverse postorder of a depth-first walk along fanout edges. *)
let fanout_cone s n =
  s.stamp <- s.stamp + 1;
  let order = ref [] in
  let rec visit i =
    if s.mark.(i) <> s.stamp then begin
      s.mark.(i) <- s.stamp;
      List.iter visit (Network.fanouts s.net i);
      order := i :: !order
    end
  in
  visit n;
  !order

(* Lanes of word [w] in which complementing [n] changes some primary
   output; [cone] is [fanout_cone s n].  The plane is left as found. *)
let flip_lanes s n cone w =
  let p = s.vals.(w) and saved = s.saved in
  let lanes =
    List.fold_left
      (fun acc i ->
        saved.(i) <- p.(i);
        p.(i) <- (if i = n then lnot p.(i) else s.eval_fn.(i) p);
        if s.is_output.(i) then acc lor (p.(i) lxor saved.(i)) else acc)
      0 cone
  in
  List.iter (fun i -> p.(i) <- saved.(i)) cone;
  lanes

(* Does the plane witness an observable lane for every fanin code of [n]
   outside the satisfiability don't-cares [sdc]?  Then no code has an
   observability don't-care beyond [sdc], so [sdc] is the exact set. *)
let witnessed s n fanins sdc =
  let k = Array.length fanins in
  let need = Truth_table.num_minterms sdc - Truth_table.ones sdc in
  need <= plane_words * Bitsim.vectors_per_word
  &&
  let cone = fanout_cone s n in
  let seen = Bytes.make (1 lsl k) '\000' in
  let found = ref 0 and w = ref 0 in
  while !found < need && !w < plane_words do
    let p = s.vals.(!w) in
    let lanes = flip_lanes s n cone !w in
    for l = 0 to Bitsim.vectors_per_word - 1 do
      if (lanes lsr l) land 1 = 1 then begin
        let code = ref 0 in
        for j = 0 to k - 1 do
          code := !code lor (((p.(fanins.(j)) lsr l) land 1) lsl j)
        done;
        if Bytes.get seen !code = '\000' && not (Truth_table.get sdc !code)
        then begin
          Bytes.set seen !code '\001';
          incr found
        end
      end
    done;
    incr w
  done;
  !found = need

(* Global function of [e] installed at [n], over [n]'s fanins. *)
let global_of s n e =
  Network.expr_bdd s.man
    (Array.of_list (List.map (Hashtbl.find s.globals) (Network.fanins s.net n)))
    e

(* Bring the table and the plane up to date after [n] was re-implemented:
   only [n]'s fanout cone can have changed. *)
let refresh s n =
  Hashtbl.iter (Hashtbl.replace s.globals)
    (Network.global_cone s.net s.man s.globals ~node:n
       (global_of s n (Network.func s.net n)));
  s.eval_fn.(n) <- compile_node s.net n;
  let cone = fanout_cone s n in
  Array.iter
    (fun p -> List.iter (fun i -> p.(i) <- s.eval_fn.(i) p) cone)
    s.vals

let maybe_compact s =
  if Bdd.node_count s.man > compact_factor * s.compacted then begin
    let ids, roots =
      Hashtbl.fold (fun i f (is, fs) -> (i :: is, f :: fs)) s.globals ([], [])
    in
    List.iter2 (Hashtbl.replace s.globals) ids (Bdd.compact s.man roots);
    s.compacted <- Bdd.node_count s.man
  end

let analyze s n =
  let net = s.net and man = s.man and npi = s.npi in
  let fanins = Network.fanins net n in
  let k = List.length fanins in
  (* Variables npi..npi+k-1 stand for the fanin values y. *)
  let yvar j = npi + j in
  let pis = List.init npi (fun i -> i) in
  (* Consistency relation C(x, y). *)
  let consistency =
    Bdd.and_list man
      (List.mapi
         (fun j fi ->
           Bdd.xnor man (Bdd.var man (yvar j)) (Hashtbl.find s.globals fi))
         fanins)
  in
  let sdc = Bdd.not_ man (Bdd.exists man pis consistency) in
  let tt_of bdd =
    Truth_table.of_fun k (fun code ->
        Bdd.eval bdd (fun v ->
            if v >= npi && v < npi + k then code land (1 lsl (v - npi)) <> 0
            else false))
  in
  let sdc_tt = tt_of sdc in
  let dontcare =
    if witnessed s n (Array.of_list fanins) sdc_tt then sdc_tt
    else begin
      (* Observability: where no output can see [n]. *)
      let odc_global = global_odc net man s.globals n in
      (* y is a local ODC iff every x consistent with y is globally
         unobservable; the fused relational product skips the
         intermediate consistency∧observable conjunction. *)
      let odc_local =
        Bdd.not_ man
          (Bdd.and_exists man pis consistency (Bdd.not_ man odc_global))
      in
      tt_of (Bdd.or_ man sdc odc_local)
    end
  in
  let local_onset = Truth_table.of_expr k (Network.func net n) in
  { node = n; local_onset; dontcare }

(* The sweep driver: analyze each node in the session, let [visit] act on
   it, and bring the session up to date with whatever [visit] installed
   before the next node is analyzed. *)
let run_sweep net nodes visit =
  let s = open_session net in
  List.iter
    (fun n ->
      if
        (not (Network.is_input net n))
        && List.length (Network.fanins net n) <= 16
      then begin
        let func = Network.func net n and fanins = Network.fanins net n in
        visit s (analyze s n);
        if
          not
            (Expr.equal func (Network.func net n)
            && fanins = Network.fanins net n)
        then refresh s n;
        maybe_compact s
      end)
    nodes

let sweep net nodes visit = run_sweep net nodes (fun _ d -> visit d)

let compute net n =
  if Network.is_input net n then invalid_arg "Dontcare.compute: input node";
  if List.length (Network.fanins net n) > 16 then
    invalid_arg "Dontcare.compute: more than 16 fanins";
  let result = ref None in
  sweep net [ n ] (fun d -> result := Some d);
  Option.get !result

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

(* Re-implement [d]'s node under [policy] if a candidate improves it. *)
let improve s policy d =
  let net = s.net and man = s.man and globals = s.globals and n = d.node in
  let current_lits = Expr.literal_count (Network.func net n) in
  let global_of cover = global_of s n (Cover.to_expr cover) in
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
        Network.global_cone net man globals ~node:n (global_of c)
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
      let changed = ref false in
      run_sweep net [ n ] (fun s d -> changed := improve s policy d);
      !changed)

let optimize ?verify net policy =
  check_input_probs net policy;
  checked ?verify ~pass:"Dontcare.optimize" net (fun () ->
      let changed = ref 0 in
      run_sweep net (Network.topo_order net) (fun s d ->
          if improve s policy d then incr changed);
      !changed)
