open Compass_spec
open Compass_machine
open Compass_dstruct

(** The elimination-stack composition — Section 4's flagship verification
    as an executable simulation check: the ES graph satisfies
    StackConsistent, the parts keep their own specs, and every ES event
    shares its commit step with a base-stack commit or an exchange pair
    (and conversely every base event is simulated). *)

(** Tallies over the judged executions, atomic: the judge runs on every
    worker domain of a [--jobs] search. *)
type stats = {
  executions : int Atomic.t;
  eliminated : int Atomic.t;  (** ES pairs created by exchanges *)
  via_base : int Atomic.t;  (** ES events created at base-stack commits *)
}

val fresh_stats : unit -> stats

val simulation_violations : Elimination.t -> Check.violation list

val make :
  ?style:Libspec.style ->
  ?pushers:int ->
  ?poppers:int ->
  ?ops:int ->
  stats ->
  Explore.scenario
