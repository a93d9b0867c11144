open Compass_rmc
open Compass_event
open Compass_machine

(** Coarse-grained lock-based stack — see {!Lockqueue}. *)

type t

val default_fuel : int

val create : ?capacity:int -> ?fuel:int -> Machine.t -> name:string -> t
val graph : t -> Graph.t

val push :
  ?extra:(Commit.spec list -> Commit.spec list) -> t -> Value.t -> unit Prog.t

val pop : ?extra:(Commit.spec list -> Commit.spec list) -> t -> Value.t Prog.t
val instantiate : Iface.stack_factory
