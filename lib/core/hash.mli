(** The one integer hash behind every content key ([Network] and [Dfg]
    structural hashes, trace fingerprints, [Memo] and rewrite-cost keys):
    a SplitMix64 finisher with constants truncated to 63 bits, and an
    FNV-style order-sensitive combine.  Changing a constant re-keys every
    cache. *)

val mix : int -> int
val combine : int -> int -> int

val combine_float : int -> float -> int
(** {!combine} over the bit pattern of the float. *)

val string : string -> int
(** Length, then every byte, folded with {!combine}. *)
