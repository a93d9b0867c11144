open Compass_machine
open Compass_spec
open Compass_dstruct

(** The single-producer single-consumer client of Section 3.2: the
    producer enqueues [a_p[0..n)], the consumer dequeues [n] values
    (retrying on empty) into [a_c]; end-to-end FIFO means [a_c = a_p] —
    including race-freedom of the non-atomic array accesses, which
    exercises view transfer through the queue. *)

(** Tallies over the judged executions, atomic: the judge runs on every
    worker domain of a [--jobs] search. *)
type stats = { executions : int Atomic.t; empties : int Atomic.t }

val fresh_stats : unit -> stats

val make :
  ?style:Libspec.style ->
  ?n:int ->
  ?retries:int ->
  Iface.queue_factory ->
  stats ->
  Explore.scenario
