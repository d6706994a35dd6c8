(** Deterministic activity-costed rewrite search over {!Rules}.

    Greedy-or-beam: each step enumerates every rule application over the
    frontier, costs candidates under {!Cost} (duplicates pruned and
    re-costs cached via {!Dfg.structural_hash}), and admits the cheapest
    [beam] of them — each {e only} after passing the two-stage
    equivalence gate: [Transform.equivalent] random execution, then a
    SAT sweep ({!Elaborate.sweep}) through one shared incremental
    [Sat.Cec] session holding the original's encoding.  Sweeps are
    relative to the candidate's frontier parent — itself already proven,
    so transitivity closes the chain to the original — with
    simulation-signature cut-points merging everything the one new
    rewrite left untouched, so each obligation encodes only a small
    local cone however deep the search runs.  Rewrites failing either
    stage are reported as {!refutation}s and never applied; rewrites the
    per-call conflict budget leaves undecided are skipped (counted, not
    refuted).  The search is deterministic for a given rng seed. *)

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
  final : Dfg.t;  (** best verified graph found *)
  initial_cost : float;
  final_cost : float;
  steps : step list;  (** accepted rewrites on the best path, in order *)
  refuted : refutation list;  (** rejected applications, never applied *)
  candidates : int;  (** rule applications enumerated *)
  proofs : int;  (** SAT-verified acceptances *)
  undecided : int;  (** candidates skipped on SAT-budget exhaustion *)
  sat : Solver.stats;  (** the shared session's solver counters *)
  model : Cost.model;
  beam : int;
}

val run :
  ?rules:Rules.rule list ->
  ?beam:int ->
  ?max_steps:int ->
  ?patience:int ->
  ?samples:int ->
  ?sat_budget:int ->
  ?memo:Memo.t ->
  ?model:Cost.model ->
  rng:Lowpower.Rng.t ->
  Dfg.t ->
  trace:(string * int) list list ->
  result
(** Search from [dfg] under the word [trace].  [beam] (at least 1;
    [1] = greedy) defaults to 4;
    [max_steps] (default 24) bounds the depth;
    [patience] (default 2) stops after that many frontier advances
    without improving the best cost; [samples] (default 64) sets the
    random-execution sample count threaded to [Transform.equivalent];
    [sat_budget] (default 60000) bounds each SAT call's conflicts — a
    candidate left undecided is skipped, never applied and never
    memoized; [memo] (default: a fresh cache private to this run) caches
    candidate costs and CEC verdicts across and within runs; [model]
    defaults to [Cost.Toggles]. *)
