(** Path balancing with unit-delay buffers (§III.A.2; [16], [25]).

    Spurious transitions (glitches) arise when a gate's fanin paths have
    unequal delays: the gate output toggles on the early arrival, then
    toggles back when the late arrival lands.  Inserting unit-delay buffers
    on the early fanins equalizes path depth and suppresses glitches — at
    the price of buffer capacitance, which is the tradeoff this module (and
    experiment E5) quantifies. *)

val imbalance : Network.t -> int
(** Sum over logic nodes and fanin pairs of level differences — 0 iff the
    network is perfectly balanced under the unit-delay model. *)

val balance :
  ?verify:Verify.mode -> ?budget:int -> ?buffer_cap:float -> Network.t
  -> Network.t * int
(** A copy of the network with buffers (identity nodes of delay 1 and
    capacitance [buffer_cap], default 0.5) inserted so that, wherever the
    buffer budget allows, all fanins of every gate arrive at the same
    unit-delay level.  Insertion proceeds from the largest level gaps
    down; [budget] (default unlimited) caps the number of buffers.
    Returns the new network and the number of buffers inserted.
    The critical path level is never increased (buffers only pad slack
    edges).  [verify] (default from [Lowpower.Config]) re-proves input/output
    equivalence and raises {!Verify.Failed} on a mismatch. *)

val selective :
  ?verify:Verify.mode -> Network.t -> threshold:int -> Network.t * int
(** Budget-free variant of [balance] that only pads fanin pairs whose level
    difference exceeds [threshold] — the "reduce rather than eliminate"
    policy the survey describes. *)

val pad_selective :
  ?verify:Verify.mode -> ?buffer_cap:float -> Network.t -> threshold:int
  -> Network.t * int
(** {!selective} with an explicit buffer capacitance. *)
