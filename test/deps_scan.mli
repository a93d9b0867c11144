open Compass_machine

(** Mazurkiewicz trace order over a machine-step sequence by an
    all-pairs scan: the reference the step log's clocks ({!Deps.push},
    {!Deps.truncate}), {!Deps.hb} and {!Deps.races} are checked against. *)

type t

val analyze : (int * Deps.footprint) array -> t
(** one clock per step: the join of the clocks of every earlier step
    of the same thread or with a non-commuting footprint *)

val hb : t -> int -> int -> bool
val races : ?from:int -> t -> (int * int) list
