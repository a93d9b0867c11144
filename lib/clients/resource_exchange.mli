open Compass_rmc
open Compass_machine

(** The resource-exchange client of Section 4.2: each thread offers a
    pointer to a privately, non-atomically initialised cell through the
    exchanger; a successful exchange lets it read the partner's cell
    non-atomically — race-free only because the exchanger's
    synchronisation transfers the owners' views (a resource transfer in
    the separation-logic sense, checked through the race detector).
    Conservation: swaps pair up exactly. *)

(** Tallies over the judged executions, atomic: the judge runs on every
    worker domain of a [--jobs] search. *)
type stats = {
  executions : int Atomic.t;
  swaps : int Atomic.t;
  fails : int Atomic.t;
}

val fresh_stats : unit -> stats
val payload : tid:int -> Value.t
val make : ?threads:int -> stats -> Explore.scenario
