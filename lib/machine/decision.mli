open Compass_rmc

(** The typed decision trace — the one substrate every exploration engine
    shares.  A decision script used to be a bare [int array] that
    {!Explore}, {!Dpor}, the fuzzer, the shrinker, and the replay CLI
    each reinterpreted by position; now each entry records {e what} was
    decided ({!kind}), the width of the choice, the source site when the
    program labelled one, and — for read-like decisions — the
    reads-from provenance of the message the choice selected.  The
    provenance is what makes data-DPOR possible: two executions whose
    read decisions resolve to the same rf edges are the same ORC11
    execution graph no matter how the scheduler interleaved them. *)

type kind =
  | Sched of int  (** which thread ran; the tid, [-1] while unresolved *)
  | Read of Loc.t  (** which message a load returned *)
  | Await of Loc.t  (** which satisfying message an await consumed *)
  | Cas of Loc.t  (** which satisfying message an RMW read *)
  | Ts of Loc.t  (** which timestamp gap a write took ([`Gap] policy) *)
  | Opaque  (** unknown origin (deserialized v1 scripts, raw ints) *)

type rf = { rf_ts : Timestamp.t; rf_wtid : int (** -1 = initialisation *) }

type t = {
  choice : int;  (** the alternative taken (< arity when arity known) *)
  arity : int;  (** alternatives at this point; 0 = unknown (external) *)
  mutable kind : kind;
  mutable rf : rf option;  (** provenance of the message read, if any *)
  mutable site : string option;
}

type trace = t array

val make : ?kind:kind -> ?site:string -> choice:int -> arity:int -> unit -> t

val opaque : int -> t
(** a bare choice with no typing ([arity = 0]) *)

val of_ints : int array -> trace
(** lift a raw v1 script; every entry {!Opaque} *)

val choices : trace -> int array
(** the underlying int script (always valid to feed back to replay) *)

val arities : trace -> int array

val resolve : t -> int -> t
(** a fresh decision at the same point with another alternative taken:
    kind and site survive, provenance is dropped (it described the old
    choice) *)

val bumped : t -> t
(** [resolve d (d.choice + 1)] *)

val zeroed : t -> t
(** [resolve d 0] *)

val set_rf : t -> ts:Timestamp.t -> wtid:int -> unit

val equal : t -> t -> bool
val equal_trace : trace -> trace -> bool

val strip_trailing_zeros : trace -> trace
(** choice 0 is the past-the-end replay default, so trailing zeros are
    redundant in any script *)

val measure : trace -> int * int
(** (length, choice sum) — the shrinker's lexicographic measure *)

val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit

val pp_trace : Format.formatter -> trace -> unit
(** numbered one-per-line rendering with site labels and rf provenance
    (the [replay --trace] view) *)

val to_line : trace -> string
(** versioned text form: ["v2" token…] with locations as {!Loc.key} ints
    (site labels are not serialized — replay re-derives them) *)

val of_line : string -> trace option
(** parse {!to_line} output {e or} a legacy v1 line of space-separated
    choice ints (read by {!of_choices}); [None] on malformed input,
    including a negative choice *)

val of_choices : string list -> trace option
(** a v1 script from its choice tokens, lifted via {!of_ints}; [None]
    unless every token is a non-negative integer (the CLI's [--script]
    reads its comma-separated tokens with this too) *)

val to_json : t -> Compass_util.Jsonout.t
val trace_to_json : trace -> Compass_util.Jsonout.t
