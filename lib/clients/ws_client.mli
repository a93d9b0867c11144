open Compass_rmc
open Compass_machine

(** A work-stealing scheduler client for the Chase-Lev deque (experiment
    E8).  The owner pushes distinct tasks and drains; thieves steal.
    Checked per execution: conservation (no task lost or duplicated),
    WsDequeConsistent, and LAThist.
    [weak_fences] runs the broken ablation in which the checker exhibits
    the double-take. *)

(** Tallies over the judged executions, atomic: the judge runs on every
    worker domain of a [--jobs] search. *)
type stats = {
  executions : int Atomic.t;
  popped : int Atomic.t;
  stolen : int Atomic.t;
  empty_steals : int Atomic.t;
}

val fresh_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit
val task : int -> Value.t

val make :
  ?weak_fences:bool ->
  ?tasks:int ->
  ?thieves:int ->
  ?steals:int ->
  stats ->
  Explore.scenario
