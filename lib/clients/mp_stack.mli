open Compass_spec
open Compass_machine
open Compass_dstruct

(** Message passing through a stack: Figure 1's shape with STACK-EMPPOP
    in the role of QUEUE-EMPDEQ — the flag-synchronised thread's pop can
    never return empty. *)

(** Tallies over the judged executions, atomic: the judge runs on every
    worker domain of a [--jobs] search. *)
type stats = {
  executions : int Atomic.t;
  right_got : int Atomic.t;
  right_empty : int Atomic.t;
}

val fresh_stats : unit -> stats
val make : ?style:Libspec.style -> Iface.stack_factory -> stats -> Explore.scenario
