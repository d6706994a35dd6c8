(** Combinational equivalence checking by miter + SAT (with word-parallel
    random simulation as a pre-filter).

    Two networks over the same inputs and output names are fed into one
    solver sharing input literals; each matched output pair becomes an
    XOR miter discharged under an assumption, so one incremental solver
    handles every output.  Before any SAT call, a few rounds of
    word-parallel random simulation (63 vectors per machine word) look
    for an output pair that already disagrees — the cheap filter that
    finds almost every inequivalence in practice; only the
    candidate-equivalent survivors reach the solver.

    A reported counterexample is always replayed through {!Event_sim}
    (on the miter network) before being returned, so the answer is
    confirmed by an independent evaluator.

    Two throughput mechanisms sit on top of the one-shot check.
    {e Sessions} ({!session}) keep one live solver holding the Tseitin
    encoding of a base network and discharge a stream of obligations
    against it — each obligation encodes only what the base lacks,
    guarded by an activation literal that is assumed during its check and
    retired (unit negated, then reclaimed by {!Solver.simplify})
    afterwards, so learned clauses accumulate across obligations instead
    of being rebuilt.  Equivalence obligations ({!session_encode},
    {!session_check}) are {e swept} into the session, sim-then-SAT in the
    manner of fraiging: a candidate node structurally identical to a
    base node (same function over the same fanin literals) reuses the
    base literal, and one whose simulation signature matches a base
    node's (up to complement) is proved equal by two small assumption
    solves and then replaced by the base literal, so a derivative of the
    base folds back onto the base's own literals and most output miters
    vanish without a solve.  The strash and signature tables are built on
    the first equivalence obligation; never-true obligations
    ({!session_never_true}) do not pay for them.  The one-shot {!check}
    is the oracle the session path is property-tested against. *)

type outcome =
  | Equivalent
  | Counterexample of bool array
      (** An input vector (by input position) on which some output pair
          disagrees; confirmed by {!replay}. *)

val check :
  ?rounds:int ->
  ?seed:int ->
  ?on_stats:(Solver.stats -> unit) ->
  Network.t ->
  Network.t ->
  outcome
(** [check a b] decides whether every equally-named output computes the
    same function of the primary inputs.  [rounds] (default 4) sets the
    number of 63-vector random simulation passes; [seed] their stream.
    [on_stats] receives the solver counters when the SAT phase ran — the
    simulation filter short-circuits it.  Raises [Invalid_argument] if the input counts or output name sets
    differ. *)

val miter : Network.t -> Network.t -> Network.t
(** The combined network: both operands instantiated over shared fresh
    inputs, an XOR per matched output pair, OR-reduced into the single
    output ["miter"] — satisfiable iff the networks differ.  Raises
    [Invalid_argument] as {!check}. *)

val replay : Network.t -> Network.t -> bool array -> bool
(** [replay a b vec] confirms a counterexample through the event-driven
    simulator: the miter is simulated over the step [all-zeros -> vec]
    under the unit-delay model, and the parity of the miter output's
    settled transitions (anchored at the evaluated all-zeros value)
    yields the miter value on [vec].  [true] means the networks really
    disagree on [vec]. *)

val satisfiable : Network.t -> string -> bool array option
(** [satisfiable net out] is an input vector driving the named output to
    1, or [None] if the output is constant false — the discharge engine
    for the never-true proof obligations of {!Verify}.  Raises
    [Invalid_argument] on an unknown output. *)

(** {1 Incremental sessions} *)

type session
(** One live solver holding the Tseitin encoding of a base network, the
    retirement bookkeeping for per-obligation activation literals, and
    (once an equivalence obligation arrives) the base's strash and
    simulation-signature tables. *)

val session : Network.t -> session
(** Encode the base network once.  Obligations checked against the
    session reuse its input literals, node literals and every clause
    learned by earlier checks. *)

val session_never_true : session -> Network.t -> string -> bool array option
(** [session_never_true sess ob out]: decide whether the named output of
    [ob] — a network built by [Network.copy base] plus added nodes, as
    the {!Guard}/{!Precompute} obligation builders produce — can be
    driven to 1.  Only the suffix of [ob] (nodes absent from the base) is
    encoded, under a fresh activation literal retired after the check.
    Returns the witness vector, or [None] when the output is constant
    false.  Raises [Invalid_argument] when [ob] does not structurally
    extend the session's base (shared node ids must carry identical
    functions and fanins), and [Failure] if a SAT witness fails replay
    through {!Network.eval_outputs}. *)

val session_never_true_within :
  session ->
  conflicts:int ->
  Network.t ->
  string ->
  [ `Never_true | `Witness of bool array | `Undecided ]
(** {!session_never_true} under a deterministic effort bound: the solver
    gives up with [`Undecided] once the call has spent more than
    [conflicts] conflicts (checked at the solver's interrupt-poll
    granularity, so slightly more may elapse).  The obligation's
    activation literal is retired either way, and clauses learned before
    the bound are kept — a later retry resumes from stronger state.
    Exceptions as {!session_never_true}. *)

val session_check : session -> Network.t -> outcome
(** [session_check sess other]: equivalence of [other] against the
    session's base over shared input literals, without re-encoding the
    base — {!session_encode}, {!session_recheck}, then
    {!session_retire}.  Counterexamples are replay-confirmed as in
    {!check}.  Raises [Invalid_argument] as {!check}. *)

type handle
(** An operand network encoded into a session but not yet retired, so its
    per-output checks can be re-discharged without re-encoding. *)

val session_encode : session -> Network.t -> handle
(** Sweep an operand into the session in topological order, under a
    fresh activation literal.  Each node takes, in order of preference:
    - the literal of a base node, or an earlier node of the operand, with
      the same function over the same fanin literals (structural hashing:
      no variables, no clauses);
    - otherwise its own Tseitin encoding, replaced by a base node's
      literal (or its complement) when their signatures on the session's
      fixed-seed simulation words match and both directions of their XOR
      are refuted under the activation literal.  A satisfiable direction
      leaves the node unmerged; nothing but a proof merges.
    Output pairs whose literals end up identical are discharged here;
    each remaining pair gets an activation-guarded XOR miter literal for
    {!session_recheck}.  The first call builds the base's strash and
    signature tables.  Merge proofs learn clauses that later obligations
    keep; a merge itself adds nothing to the clause database, so it
    cannot leak into another operand.  Raises [Invalid_argument] as
    {!check}. *)

val session_recheck : session -> handle -> outcome
(** Discharge every per-output miter the sweep left — assumption solves
    only; after the first call, later calls ride entirely on retained
    learned clauses.  Raises [Invalid_argument] on a retired handle. *)

val session_retire : session -> handle -> unit
(** Permanently retire the handle's encoding (unit-negate its activation
    literal; the clauses are reclaimed by a periodic
    {!Solver.simplify}).  Idempotent. *)

val session_stats : session -> Solver.stats
(** Counters of the session's live solver. *)
