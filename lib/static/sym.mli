open Compass_rmc
open Compass_machine

(** Symbolic evaluation of {!Prog} terms.

    The free monad's continuations are opaque closures, so the analyzer
    {e feeds} each thread program values from an abstract store instead
    of walking an AST: loads fork the path over a bounded candidate set,
    stores feed a shared monotone summary, allocations mint fresh blocks
    merged per allocation-site class (the may-alias abstraction).
    Evaluation is mode-independent — one run serves every hypothetical
    weakening the lints try ({!Lints}). *)

type ekind =
  | ELoad
  | EStore
  | EUpdate of bool  (** RMW; payload is the success flag *)
  | EAwait
  | EFence of Mode.fence
  | EAlloc

type ev = {
  idx : int;  (** position in the path (sequenced-before order) *)
  site : string option;
  ekind : ekind;
  mode : Mode.access;  (** recorded mode (base overrides applied) *)
  loc : Loc.t option;  (** raw location; [None] for fences *)
  cloc : Loc.t option;  (** class-canonical location (may-alias key) *)
  own : bool;  (** the block was allocated on this path *)
  wrote : Value.t option;
  read : Value.t option;
  prov : int option;
      (** index of the event whose read produced the pointer this access
          dereferences — the def-use edge the pairing lint follows *)
}

type path = {
  tid : int;
  events : ev array;
  minted : int list;  (** bases of blocks allocated on this path *)
  truncated : bool;
}

type t = {
  threads : int;
  paths : path list;  (** final round only — the most-informed paths *)
  total_paths : int;
  dropped : int;  (** paths cut by exceptions inside continuations *)
}

val site_key : path -> ev -> string
(** the event's site label, or the [unlabeled@loc[tid n]] key matching
    {!Compass_analysis.Races.site_key} for the dynamic cross-check *)

val run : ?overrides:Override.t -> Machine.t -> t
(** evaluate a {e built} (never run) machine's spawned programs: 3
    chaotic iterations so one thread's published values reach the
    others, 4 visits per site before a path truncates, 4,000 ops per
    thread per round, 6 forked values per load.  [overrides] are baked
    into the recorded event modes. *)
