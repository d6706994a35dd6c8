(** The engine switchboard: the two environment settings that choose
    how a result is proved and how many domains compute it, parsed once
    per process.  An explicit argument ([?verify], [?domains]) always
    wins; the record supplies the default a caller leaves out.  One rule
    covers both: unset gives the default, an accepted value selects it,
    and anything else raises [Invalid_argument] naming the variable and
    its accepted values. *)

type t = {
  verify : [ `Bdd | `Sat | `Off ];
      (** [LOWPOWER_VERIFY]: off (default), sat or bdd — the default
          [?verify] of every rewriting pass *)
  serve_domains : int;
      (** [LOWPOWER_SERVE_DOMAINS]: 1 to {!max_domains} [Pool.map]
          workers; default the recommended domain count, at most 8 *)
}

val max_domains : int
(** 128, the most domains the OCaml runtime runs at once: the bound of
    [serve_domains], and [Pool.map]'s clamp. *)

val of_lookup : (string -> string option) -> t
(** Parse the settings through a lookup ([Sys.getenv_opt] for the
    process environment).  Raises [Invalid_argument] on the first
    setting whose value is not accepted. *)

val get : unit -> t
(** {!of_lookup} of the process environment, parsed on the first call
    and shared by every domain afterwards.  Raises like {!of_lookup}. *)

val to_string : t -> string
(** One line naming every setting: [config: verify=off serve_domains=2]. *)
