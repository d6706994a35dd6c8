(** Don't-care computation and power-aware node simplification
    (§III.A.1; [37], [38], [19]).

    For a node [n] of a multi-level network, two don't-care sets exist over
    its fanin space:
    - the {e satisfiability/controllability} don't-cares (SDC): fanin value
      combinations that no primary-input assignment can produce;
    - the {e observability} don't-cares (ODC): fanin combinations for which
      the node's value cannot be observed at any primary output.

    Both are computed exactly, with BDDs unless simulation already proves
    that the ODC adds nothing to the SDC (see {!sweep}).  A node may then
    be re-implemented with any function agreeing with its current one
    outside the don't-care set.  The power-aware policy ([38]) picks,
    within that flexibility, the implementation that skews the node's
    signal probability away from 1/2 — minimizing its [2p(1-p)] switching
    activity — and two-level-minimizes it with the don't-cares. *)

type dc = {
  node : Network.id;
  local_onset : Truth_table.t;  (** current function over fanins *)
  dontcare : Truth_table.t;     (** SDC union ODC over fanins *)
}

val compute : Network.t -> Network.id -> dc
(** Exact local don't-cares of one node: a one-node {!sweep}, so a fresh
    manager per call.  Raises [Invalid_argument] on an input node or a
    node with more than 16 fanins. *)

val sweep : Network.t -> Network.id list -> (dc -> unit) -> unit
(** [sweep net nodes visit] computes the don't-cares of every logic node
    of [nodes] with at most 16 fanins (others are skipped), in list order,
    and hands each to [visit] before moving on.  [visit] may re-implement
    the node it is given (and only that node) with {!Network.replace_func};
    each later node's don't-cares are those of the network as it is then,
    equal to what {!compute} returns on it.

    The whole sweep runs in one BDD session: one manager and one table of
    every node's global function, built once.  A node's observability
    don't-cares are built from its transitive fanout only
    ({!global_odc}); when [visit] changes the node's function, the sweep
    rebuilds that cone in the table ({!Network.global_cone}).  Between
    nodes, once the manager holds twice the nodes it held after the last
    compaction, {!Bdd.compact} shrinks it to the live table.  The
    variable order is the one a fresh per-node manager would use, so the
    results are identical.

    Most nodes skip the BDD observability computation.  The session also
    keeps every node's values under 252 fixed-seed random input vectors
    (4 words of 63 lanes, evaluated by {!Bitsim.compile_word} and
    refreshed over the same cone after an edit).  After the SDC, the
    sweep complements the node's lanes and re-simulates its fanout cone.
    A lane where some output changes is a witness: its fanin code occurs
    under a real input vector at which the node is observable, so that
    code is neither an SDC nor a local ODC.  If every code outside the
    SDC has a witness, the local ODC adds nothing to the SDC, and the
    SDC is returned as the exact don't-care set.  Only the other nodes
    (no witness for some care code, or more than 252 care codes) go
    through {!global_odc}.  Simulation only ever proves codes
    observable, never unobservable, so the result does not depend on
    the vectors drawn; only the speed does. *)

val global_odc :
  Network.t -> Bdd.man -> (Network.id, Bdd.t) Hashtbl.t -> Network.id ->
  Bdd.t
(** [global_odc net man globals n] is the global observability don't-care
    of node [n]: the conjunction over all primary outputs [o] of
    [not (d o / d z)], where a free variable [z] replaces [n]'s global
    function.  [globals] is the network's global table in [man]
    ({!Network.global_bdds}).  Only [n]'s fanout cone is rebuilt over it,
    once with [z = 0] and once with [z = 1] ({!Network.global_cone}):
    [d o / d z] is the exclusive or of those two cofactors, and outputs
    outside the cone cannot see [z].  The result is a function of the
    primary inputs (variables [0..npi-1]), true exactly where no output
    can see [n].  Shared by {!sweep} and [Guard.observability_condition]. *)

val minimized_candidates : dc -> Cover.t list
(** Two-level-minimized re-implementations of the node, one per don't-care
    assignment: free (the minimizer chooses), all-to-0, all-to-1.  Every
    cover agrees with [local_onset] on the care set, so installing any of
    them preserves all primary outputs.  Exposed for measurement-driven
    resynthesis ({!Resynth}), which scores these same candidates by
    measured toggles instead of model probabilities. *)

type policy =
  | For_area    (** minimize cube/literal count only *)
  | For_power of float array
      (** [38]: minimize the node's own switching activity; the array gives
          primary-input 1-probabilities used to evaluate candidate
          probabilities *)
  | For_power_fanout of float array
      (** [19]: like [For_power], but candidates are scored by the total
          capacitance-weighted activity of the node {e and its transitive
          fanout} — a probability skew that quiets the node can excite
          downstream gates, and this policy sees that *)

val optimize_node :
  ?verify:Verify.mode -> Network.t -> policy -> Network.id -> bool
(** Re-implement one node using its don't-cares under the given policy;
    returns [true] if the node changed.  The network remains functionally
    equivalent at all primary outputs (don't-cares guarantee it); [verify]
    (default from [Lowpower.Config]) re-proves the equivalence independently
    and raises {!Verify.Failed} on a mismatch.

    Every candidate is scored in the sweep's BDD session (see {!sweep}):
    a candidate's global function comes from its fanins' entries in the
    session's global table, [For_power] takes its probability directly,
    and [For_power_fanout] prices the transitive fanout on
    {!Network.global_cone} with the node overridden by the candidate.
    The network is only written once, when the winner is installed.  All
    policies pick the lowest score (literal count for [For_area]), ties
    within [1e-12] going to fewer literals.

    Raises [Invalid_argument], before the network is touched, if a power
    policy's probability array does not have one entry per primary input
    or holds an entry outside the unit interval. *)

val optimize : ?verify:Verify.mode -> Network.t -> policy -> int
(** Apply {!optimize_node} to every logic node in topological order, as
    one {!sweep}; returns the number of changed nodes.  One verification
    at the end covers the whole sweep.  Validates the policy's
    probabilities as {!optimize_node} does, once, before the sweep
    starts. *)
