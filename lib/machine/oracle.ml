(* Decision oracles.

   All nondeterminism in an execution — which thread steps, which message a
   load reads, which timestamp a write takes — is resolved by a sequence of
   bounded integer choices.  An oracle answers those choices and logs each
   as a typed {!Decision.t}, which is exactly what the stateless DFS
   explorer needs to enumerate the decision tree and what the replay
   tooling renders for triage.

   Each choice carries a pick-facing [kind]: scheduling choices name the
   runnable threads they pick between, everything else (read message,
   write timestamp, await/RMW candidates) is [Data].  Enumeration and
   replay ignore kinds; schedule-directed oracles (the PCT fuzzer) key on
   them.  Orthogonally, the machine passes a [dkind] (and [site]) that
   types the logged decision — and annotates the entry post-pick with the
   scheduled tid or the reads-from provenance of the message selected. *)

type kind =
  | Sched of int array
      (** a scheduling decision; element [i] is the tid that choice [i]
          would run, so [Array.length tids = arity] *)
  | Data  (** load / timestamp / await / RMW-candidate choice *)

type t = {
  mutable pos : int;
  mutable log : Decision.t list;  (** newest first *)
  pick : pos:int -> arity:int -> kind:kind -> int;
  sched_aware : bool;
      (** whether [pick] inspects scheduling kinds; when false the machine
          skips building the runnable-tid array for [Sched] choices *)
  clamps : int ref;
      (** out-of-range script choices clamped so far (clamped oracles) *)
}

let choose ?(kind = Data) ?(dkind = Decision.Opaque) ?site o ~arity =
  if arity <= 0 then invalid_arg "Oracle.choose: empty choice";
  let pos = o.pos in
  o.pos <- pos + 1;
  let c = o.pick ~pos ~arity ~kind in
  assert (0 <= c && c < arity);
  o.log <- Decision.make ~kind:dkind ?site ~choice:c ~arity () :: o.log;
  c

(* Post-pick annotation of the newest decision.  The machine only learns
   the scheduled thread's tid / the message a read resolved to after the
   pick returns; arity-1 choices consume no decision, so the machine
   guards these with [arity > 1]. *)
let annotate_sched o tid =
  match o.log with d :: _ -> d.Decision.kind <- Decision.Sched tid | [] -> ()

let annotate_rf o ~ts ~wtid =
  match o.log with d :: _ -> Decision.set_rf d ~ts ~wtid | [] -> ()

(* Decisions taken so far, earliest first. *)
let decisions o = List.rev_map (fun d -> d.Decision.choice) o.log
let arities o = List.rev_map (fun d -> d.Decision.arity) o.log

(* The typed trace as an array, earliest first — one log traversal.  The
   records are the log entries themselves (not copies): later annotation
   through the oracle is visible, which is what trace consumers want. *)
let trace o =
  let n = o.pos in
  if n = 0 then [||]
  else begin
    let tr = Array.make n (Decision.opaque 0) in
    let rec fill i = function
      | [] -> ()
      | d :: tl ->
          tr.(i) <- d;
          fill (i - 1) tl
    in
    fill (n - 1) o.log;
    tr
  end

let position o = o.pos
let sched_aware o = o.sched_aware

let clamp_count o = !(o.clamps)

(* Raw decision log, newest first — the persistent list itself, so
   checkpointing it is O(1). *)
let raw_log o = o.log

(* Custom pick function — how the fuzzing subsystem builds its PCT and
   prefix-replay oracles without this module knowing about them. *)
let make ?(sched_aware = true) pick =
  { pos = 0; log = []; pick; sched_aware; clamps = ref 0 }

(* Deterministic oracle: always the last alternative.  For loads the
   alternatives are in ascending timestamp order, so "last" reads the
   mo-maximal message — the right default for solo (setup) execution.
   Always a fresh value: a shared oracle would be mutable state leaking
   between executions (and between domains, under parallel exploration). *)
let fresh_latest () =
  {
    pos = 0;
    log = [];
    pick = (fun ~pos:_ ~arity ~kind:_ -> arity - 1);
    sched_aware = false;
    clamps = ref 0;
  }

(* Seeded pseudo-random oracle (deterministic per seed). *)
let random ~seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  {
    pos = 0;
    log = [];
    pick = (fun ~pos:_ ~arity ~kind:_ -> Random.State.int st arity);
    sched_aware = false;
    clamps = ref 0;
  }

let script_pick (tr : Decision.trace) ~pos ~arity ~kind:_ =
  if pos < Array.length tr then (
    let c = tr.(pos).Decision.choice in
    if c >= arity then
      invalid_arg
        (Printf.sprintf "Oracle.script: choice %d/%d at %d" c arity pos);
    c)
  else 0

(* Replay [script] and fall back to choice 0 (the "first" alternative) past
   its end — the DFS explorer's workhorse.  Strict: an out-of-range choice
   raises, because internally-generated scripts are valid by construction
   and a mismatch means the engine diverged. *)
let script tr =
  { pos = 0; log = []; pick = script_pick tr; sched_aware = false; clamps = ref 0 }

(* Tolerant replay: out-of-range choices clamp to the last alternative
   instead of raising, and the clamp is counted ({!clamp_count}).  A
   shrinker or fuzzer mutating a valid script can push a later position
   past its (path-dependent) arity; clamping keeps every mutant runnable,
   and the run's *logged* decision vector is then a valid script for
   strict replay.  This is the uniform external-replay semantics: every
   script that crosses a tool boundary (CLI replay, corpus entries,
   shrink candidates, witness JSON) runs clamped-and-reported. *)
let script_clamped tr =
  let clamps = ref 0 in
  {
    pos = 0;
    log = [];
    pick =
      (fun ~pos ~arity ~kind:_ ->
        if pos < Array.length tr then begin
          let c = tr.(pos).Decision.choice in
          if c >= arity then begin
            incr clamps;
            arity - 1
          end
          else c
        end
        else 0);
    sched_aware = false;
    clamps;
  }

(* Resume a scripted replay from a machine checkpoint: the first [pos]
   choices were already taken on the checkpointed path, and their
   decisions are seeded from [log] so that {!trace} and {!vectors} still
   report the full vectors the DFS bumper needs.  [log] must be the
   {!raw_log} captured when the checkpoint was taken, and the checkpoint
   is only valid if [script] agrees with it on those [pos] positions (the
   explorer guarantees this by construction). *)
let resume_script ~pos ~log tr =
  assert (List.length log = pos);
  { pos; log; pick = script_pick tr; sched_aware = false; clamps = ref 0 }

(* Resume with a custom pick — what the DPOR driver plugs into the
   incremental engine: scripted positions replay the task prefix, fresh
   positions consult the driver's scheduling policy. *)
let resume_make ?(sched_aware = true) ~pos ~log pick =
  assert (List.length log = pos);
  { pos; log; pick; sched_aware; clamps = ref 0 }
