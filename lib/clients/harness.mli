open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct

(** Scenario-building helpers shared by all client verifications and
    experiments. *)

val vi : int -> Value.t

val scenario :
  name:string ->
  (Machine.t -> Value.t Prog.t list * (Value.t array -> Explore.verdict)) ->
  Explore.scenario
(** standard outcome plumbing: faults are violations, blocked/bounded
    executions are discarded, finished ones go to the judge *)

val val_of : tid:int -> i:int -> Value.t
(** distinct per (thread, index) — required for unambiguous so matching *)

(** {1 Parametric workloads} *)

val queue_workload :
  ?style:Libspec.style ->
  Iface.queue_factory ->
  enqers:int ->
  deqers:int ->
  ops:int ->
  unit ->
  Explore.scenario

val stack_workload :
  ?style:Libspec.style ->
  Iface.stack_factory ->
  pushers:int ->
  poppers:int ->
  ops:int ->
  unit ->
  Explore.scenario

val stack_mixed :
  ?style:Libspec.style ->
  Iface.stack_factory ->
  threads:int ->
  ops:int ->
  unit ->
  Explore.scenario
(** every thread pushes and pops alternately *)

val exchanger_workload :
  ?impl:(Machine.t -> name:string -> Iface.exchanger) ->
  threads:int ->
  unit ->
  Explore.scenario
(** checks ExchangerConsistent plus pairwise value swaps; [impl] defaults
    to the single-slot exchanger — pass the array to exercise
    Section 4.1's composite *)
