(** Algebraic factoring by kernel extraction (§III.A.3; [5], [35]).

    Multi-level synthesis extracts common subexpressions (kernels) shared
    across a set of sum-of-products functions and reuses them as new
    intermediate signals.  The classic cost function is literal count (area);
    the power-aware variant of [35] weighs each literal by the switching
    activity of the signal it reads, so the extractor prefers divisors made
    of quiet signals and avoids creating busy intermediate nets.

    Literal encoding: positive literal of variable [v] is [2v], negative is
    [2v+1].  An SOP is a list of cubes; a cube is a sorted literal list. *)

type sop = int list list

val lit_pos : int -> int
val lit_neg : int -> int
val lit_var : int -> int
val lit_is_pos : int -> bool

val sop_of_expr : Expr.t -> sop
(** Requires the expression to already be in OR-of-AND-of-literals shape
    (what {!Cover.to_expr} produces); raises [Invalid_argument] otherwise. *)

val expr_of_sop : sop -> Expr.t

val sop_literals : sop -> int
(** Total literal count. *)

val divide_by_cube : sop -> int list -> sop * sop
(** Weak (algebraic) division by a cube: [(quotient, remainder)] with
    [f = quotient*cube + remainder] and the product cube-disjoint. *)

val divide : sop -> sop -> sop * sop
(** Weak division by a multi-cube divisor. *)

val largest_common_cube : sop -> int list
(** Literals present in every cube. *)

val make_cube_free : sop -> sop

val is_cube_free : sop -> bool

val kernels : sop -> (int list * sop) list
(** All (co-kernel, kernel) pairs, kernels deduplicated; includes the
    cube-free version of the function itself with co-kernel []. *)

type cost =
  | Literals
  | Activity of {
      weight : int -> float;  (** activity of variable [v]'s signal *)
      prob : int -> float;    (** 1-probability of variable [v]'s signal *)
    }
      (** Power cost: each literal of variable [v] costs [weight v]; a new
          intermediate signal's weight is derived from its probability under
          variable independence. *)

type extraction = {
  functions : (string * sop) list; (** original functions, rewritten *)
  defs : (int * sop) list;         (** new variable -> its SOP, in creation order *)
  nvars : int;                     (** total variables incl. new ones *)
}

val extract :
  ?verify:Verify.mode -> ?max_new:int -> cost -> nvars:int
  -> (string * sop) list -> extraction
(** Iteratively extract the single best kernel (greatest cost saving) across
    all functions, introducing one new variable per round, until no
    extraction saves cost or [max_new] (default 50) new signals exist.
    [verify] (default from [Lowpower.Config]) checks the factored system against
    the flat originals (as networks, via {!to_network}) and raises
    {!Verify.Failed} on a mismatch. *)

val total_cost : cost -> extraction -> float
(** Cost of the factored system: all rewritten functions plus all
    definitions.  For {!Activity} new variables use derived weights. *)

val to_network : extraction -> Network.t
(** Build a Boolean network: one input per original variable, one node per
    definition and per function (named outputs). *)
