open Compass_event
open Compass_machine
open Compass_dstruct

(** Section 3.1's flexibility claim, executed: a client that runs every
    queue operation under a global lock regains the {e strong} FIFO
    condition ([(d', d) ∈ lhb]), a total lhb, and even the SC-strength
    empty condition — for any implementation, including the weak
    Herlihy-Wing queue.  {!make_control} is the negative control: on the
    bare queue the strong conditions fail. *)

(** Tallies over the judged executions, atomic: the judge runs on every
    worker domain of a [--jobs] search. *)
type stats = { executions : int Atomic.t }

val fresh_stats : unit -> stats
val lhb_total : Graph.t -> bool
val strong_fifo : Graph.t -> bool
val make : Iface.queue_factory -> stats -> Explore.scenario
val make_control : Iface.queue_factory -> int Atomic.t -> Explore.scenario
