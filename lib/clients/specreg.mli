open Compass_spec
open Compass_dstruct
open Compass_machine

(** The populated spec registry: every [lib/dstruct] structure bound to
    its spec, implementation factory, default client workloads, ladder
    expectations, and site metadata.

    {!Libspec} provides the registry {e mechanism} (it cannot see the
    implementations — they live above it); this module provides the
    {e population}, and is what the CLI tools resolve [--struct] keys
    through.  Calling any accessor forces registration, so there is no
    initialisation order to get right. *)

type Libspec.impl +=
  | Queue of Iface.queue_factory
  | Stack of Iface.stack_factory
        (** the implementation payloads: generic factories where one
            exists ([No_impl] otherwise — chase-lev, exchanger, whose
            clients construct them directly) *)

val ensure : unit -> unit
(** idempotent: register everything (implied by the accessors below) *)

val find : string -> Libspec.entry option
val all : unit -> Libspec.entry list
val keys : unit -> string list

val scenario : Libspec.entry -> int -> (unit -> Explore.scenario) option
(** the entry's [i]-th default workload ([None] out of range) *)

val sites : Libspec.entry -> (string * string) list
(** labeled site -> declared mode string across the entry's workloads,
    discovered by the static analyzer's symbolic evaluation (memoized;
    no exploration runs) *)
