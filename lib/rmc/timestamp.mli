(** Timestamps index each location's modification order.

    Every location's history starts with an initialisation write at
    {!init}.  Under the default [`Append] policy new writes take the next
    integer; under [`Gap] (needed for weak behaviours requiring mo-middle
    insertion, e.g. 2+2W) appended writes are spaced {!stride} apart so
    later writes can land between existing ones. *)

type t = int

val init : t
val compare : t -> t -> int
val equal : t -> t -> bool
val leq : t -> t -> bool
val max : t -> t -> t

val stride : int
(** spacing of appended timestamps under the [`Gap] policy *)

val midpoint : t -> t -> t option
(** [midpoint a b] is a timestamp strictly between [a] and [b], if the gap
    admits one. *)

val pp : Format.formatter -> t -> unit
