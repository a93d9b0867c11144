open Compass_event

(** Violations: the currency of all spec checkers.  The empty list means
    the execution satisfies the spec — the operational counterpart of the
    paper's consistency predicates holding invariantly. *)

type violation = { cond : string; detail : string }

val v : string -> ('a, Format.formatter, unit, violation) format4 -> 'a
(** [v cond fmt ...] builds a violation of condition [cond] *)

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> violation list -> unit

val ensure :
  violation list -> string -> bool -> (unit -> string) -> violation list
(** [ensure acc cond p detail] accumulates a violation when [p] fails *)

(** {1 What every container spec states}

    The conditions and scans the queue, stack and deque consistency
    predicates share.  Quantifiers over "already committed" events are
    bounded by commit indices. *)

val before : Event.data -> Event.data -> bool
(** commits strictly earlier *)

val out_deg : (int * int) list -> int -> int
val in_deg : (int * int) list -> int -> int
(** so-degree of an event id over an edge list, allocating nothing *)

val in_src : (int * int) list -> int -> int
(** the so source of an event of in-degree 1 ([-1] when it has none) *)

val so_lhb : string -> Graph.t -> violation list
(** [so ⊆ lhb] ([KIND-so-lhb]) and so respects commit order
    ([KIND-so-cix]), for the condition prefix [KIND] *)

val lhb_cix : Graph.t -> violation list
(** [lhb-cix]: events only observe events of earlier steps (same-step
    mutual observation is allowed: helped pairs, the paper's footnote 7) *)
