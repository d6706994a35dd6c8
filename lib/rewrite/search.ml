(* Deterministic greedy-or-beam rewrite search.  Each step enumerates
   every (rule, site) application over the frontier, costs the candidates
   (memo-cached; duplicates pruned by [Dfg.structural_hash]), and admits
   the cheapest into the next frontier — but only after the two-stage
   equivalence gate: [Transform.equivalent] random execution first (the
   cheap filter), then a SAT sweep ([Elaborate.sweep]) through one
   shared incremental session holding the original's encoding.  Proofs
   are relative to the candidate's frontier parent — itself proven, so
   transitivity closes the chain back to the original — with
   simulation-signature cut-points merging everything the one new
   rewrite did not touch; each obligation is built into a copy of the
   base netlist, so [Cec.session_never_true] encodes only small local
   cones however deep the search runs.  A candidate failing either stage
   is recorded as refuted and never applied. *)

type refutation = {
  rule : string;
  site : Dfg.id;
  stage : [ `Random_exec | `Sat ];
}

type step = {
  rule : string;
  site : Dfg.id;
  cost_before : float;
  cost_after : float;
}

type result = {
  final : Dfg.t;
  initial_cost : float;
  final_cost : float;
  steps : step list;
  refuted : refutation list;
  candidates : int;
  proofs : int;
  undecided : int;
  sat : Solver.stats;
  model : Cost.model;
  beam : int;
}

type state = { g : Dfg.t; c : float; trail : step list (* reversed *) }

exception Undecided_proof

let run ?(rules = Rules.all) ?(beam = 4) ?(max_steps = 24) ?(patience = 2)
    ?(samples = 64) ?(sat_budget = 60_000) ?(memo = Memo.create ())
    ?(model = Cost.Toggles) ~rng dfg ~trace =
  let beam = max 1 beam in
  (* Every candidate is elaborated and costed over the original input
     set, so input positions line up for [Cec] and input-pin activity is
     charged identically across candidates. *)
  let inputs = List.sort compare (List.map fst (Dfg.inputs dfg)) in
  let cost g = Cost.of_dfg ~memo ~model ~inputs g ~trace in
  let elaborate g = Elaborate.to_network ~inputs g in
  let base_net = elaborate dfg in
  let sess = Cec.session base_net in
  (* Simulation signatures guide the SAT sweep: a candidate node whose
     result word matches a node of its (already-proven) parent on every
     trace sample is a suspected cut-point, and a small local proof lets
     the sweep merge it onto the parent's gates.  Map each signature to
     the first (in topo order) parent node computing it; the hash set
     skips candidate nodes the structural gate cache resolves without
     any proof.  Tables are cached per parent, keyed structurally. *)
  let sig_cache = Hashtbl.create 16 in
  let sig_tables parent =
    let key = Dfg.structural_hash parent in
    match Hashtbl.find_opt sig_cache key with
    | Some t -> t
    | None ->
      let sigs = Hashtbl.create 64 and hashes = Hashtbl.create 64 in
      if trace <> [] then begin
        let vt = Dfg.value_trace parent trace in
        List.iter
          (fun i ->
            Hashtbl.replace hashes (Dfg.node_hash parent i) ();
            let s = Hashtbl.find vt i in
            let cls =
              match Hashtbl.find_opt sigs s with Some l -> l | None -> []
            in
            Hashtbl.replace sigs s (i :: cls))
          (Dfg.nodes parent)
      end;
      Hashtbl.replace sig_cache key (sigs, hashes);
      (sigs, hashes)
  in
  let max_pairs = 16 in
  let cut_pairs parent cand =
    if trace = [] then []
    else begin
      let sigs, hashes = sig_tables parent in
      let vt = Dfg.value_trace cand trace in
      let pairs = ref [] and n = ref 0 in
      List.iter
        (fun ci ->
          if
            !n < max_pairs
            && not (Hashtbl.mem hashes (Dfg.node_hash cand ci))
          then
            match Hashtbl.find_opt sigs (Hashtbl.find vt ci) with
            | Some cls ->
              incr n;
              (* Nearest node id first: rewrites renumber only locally,
                 so the structural counterpart of [ci] — the cheap proof
                 — almost always sits closest, and aliased class-mates
                 (partial sums equal on every sample) are tried last. *)
              let cls =
                List.stable_sort
                  (fun a b -> compare (abs (a - ci)) (abs (b - ci)))
                  cls
              in
              pairs := (ci, cls) :: !pairs
            | None -> ())
        (Dfg.operation_nodes cand);
      List.rev !pairs
    end
  in
  let refuted = ref [] in
  let candidates = ref 0 in
  let proofs = ref 0 in
  let undecided = ref 0 in
  let verify parent cand =
    if not (Transform.equivalent ~samples dfg cand ~rng) then
      `Refuted `Random_exec
    else begin
      (* SAT-sweep the candidate against its frontier parent — itself
         proven equivalent to the original, so transitivity makes every
         proof a proof against the original while each obligation stays
         one-rewrite local no matter how deep the search is.  Every
         obligation network structurally extends the original base
         elaboration, so the one shared session discharges them all.
         Each SAT call is bounded by [sat_budget] conflicts; a candidate
         the bound leaves undecided is skipped — never applied, but not
         reported refuted either (and never memoized: a later retry may
         succeed from the session's learned clauses). *)
      let prove () =
        let sat_prove net out =
          Cec.session_never_true_within sess ~conflicts:sat_budget net out
        in
        match
          Elaborate.sweep ~base:base_net ~ref_dfg:parent cand
            ~pairs:(cut_pairs parent cand) ~prove:sat_prove
        with
        | Elaborate.Equivalent -> Cec.Equivalent
        | Elaborate.Counterexample vec -> Cec.Counterexample vec
        | Elaborate.Undecided -> raise Undecided_proof
      in
      match Memo.check_with memo base_net (elaborate cand) prove with
      | Cec.Equivalent ->
        incr proofs;
        `Proved
      | Cec.Counterexample _ -> `Refuted `Sat
      | exception Undecided_proof ->
        incr undecided;
        `Undecided
    end
  in
  let initial = { g = dfg; c = cost dfg; trail = [] } in
  let visited = Hashtbl.create 64 in
  Hashtbl.replace visited (Dfg.structural_hash dfg) ();
  let best = ref initial in
  let frontier = ref [ initial ] in
  let stale = ref 0 in
  (try
     for _step = 1 to max_steps do
       let cands =
         List.concat_map
           (fun st ->
             List.concat_map
               (fun r ->
                 List.filter_map
                   (fun site ->
                     match r.Rules.apply_at st.g site with
                     | None -> None
                     | Some g' ->
                       incr candidates;
                       let h = Dfg.structural_hash g' in
                       if Hashtbl.mem visited h then None
                       else begin
                         Hashtbl.replace visited h ();
                         Some (st, r.Rules.name, site, g', cost g')
                       end)
                   (r.Rules.sites st.g))
               rules)
           !frontier
       in
       let ranked =
         List.stable_sort
           (fun (_, _, _, _, c1) (_, _, _, _, c2) -> compare c1 c2)
           cands
       in
       let next = ref [] in
       let admitted = ref 0 in
       List.iter
         (fun (st, rname, site, g', c') ->
           if !admitted < beam then
             match verify st.g g' with
             | `Proved ->
               incr admitted;
               next :=
                 {
                   g = g';
                   c = c';
                   trail =
                     { rule = rname; site; cost_before = st.c;
                       cost_after = c' }
                     :: st.trail;
                 }
                 :: !next
             | `Refuted stage ->
               refuted := { rule = rname; site; stage } :: !refuted
             | `Undecided -> ())
         ranked;
       let next = List.rev !next in
       if next = [] then raise Exit;
       frontier := next;
       let improved = List.exists (fun st -> st.c < !best.c) next in
       List.iter (fun st -> if st.c < !best.c then best := st) next;
       if improved then stale := 0
       else begin
         incr stale;
         if !stale >= patience then raise Exit
       end
     done
   with Exit -> ());
  {
    final = !best.g;
    initial_cost = initial.c;
    final_cost = !best.c;
    steps = List.rev !best.trail;
    refuted = List.rev !refuted;
    candidates = !candidates;
    proofs = !proofs;
    undecided = !undecided;
    sat = Cec.session_stats sess;
    model;
    beam;
  }
