open Compass_machine

(* Counterexample shrinking: delta-debugging over decision scripts.

   A violating execution is identified by its decision trace.  The
   shrinker looks for a smaller script that still produces a violation
   with the *same message* (so it witnesses the same bug, not a different
   one found along the way):

   1. chunk removal, ddmin-style — delete chunks of halving size;
   2. per-choice zeroing — set each nonzero choice to 0 (choice 0 is the
      replay default, so zeros at the tail disappear entirely);
   3. a 1-minimality fixpoint — retry every single-element removal and
      every single-choice decrement until none reproduces.

   Candidates replay with the clamped oracle (an out-of-range choice
   degrades to the last alternative, never raises; the total is reported
   in {!stats.clamped}); an accepted candidate is *normalized* to the
   decision trace the run actually logged, with trailing zeros stripped —
   always a valid strict script, and the form [compass replay] consumes.
   Acceptance requires the normalized form to strictly shrink under the
   (length, sum-of-choices) lexicographic measure, which is well-founded:
   the shrinker terminates even though normalization can lengthen a
   candidate (a shorter prefix can steer the execution down a deeper
   path). *)

type stats = {
  replays : int;
  initial_len : int;
  final_len : int;
  clamped : int;  (** out-of-range choices clamped across all replays *)
}

let measure = Decision.measure
let strip_trailing_zeros = Decision.strip_trailing_zeros

(* Does [script] (replayed clamped) still produce the target violation? *)
let reproduces ?(config = Machine.default_config) ~scenario ~message script =
  match (Explore.replay ~config scenario script).Explore.r_verdict with
  | Explore.Violation m -> m = message
  | _ -> false

let remove_chunk s i len =
  let n = Array.length s in
  Array.append (Array.sub s 0 i) (Array.sub s (i + len) (n - i - len))

let minimize ?(config = Machine.default_config) ?(max_replays = 20_000)
    ~scenario ~(message : string) (script0 : Decision.trace) =
  let replays = ref 0 in
  let clamped = ref 0 in
  (* Replay a script; on reproduction return its normalized form. *)
  let normalized script =
    incr replays;
    let r = Explore.replay ~config scenario script in
    clamped := !clamped + r.Explore.r_clamped;
    match r.Explore.r_verdict with
    | Explore.Violation m when m = message ->
        Some (strip_trailing_zeros r.Explore.r_trace)
    | _ -> None
  in
  (* Replay a candidate; on reproduction return its normalized form if
     strictly smaller than [cur], else None. *)
  let try_smaller cur cand =
    if !replays >= max_replays then None
    else
      match normalized cand with
      | Some norm when measure norm < measure cur -> Some norm
      | _ -> None
  in
  (* Normalize the input itself first (its logged trace can differ from
     the given script when the script over- or under-runs the path). *)
  let start = normalized script0 in
  match start with
  | None ->
      (* not reproducible under this config — hand the script back *)
      ({ replays = !replays; initial_len = Array.length script0;
         final_len = Array.length script0; clamped = !clamped },
       script0)
  | Some start ->
      let best = ref start in
      (* Phase 1: chunk removal with halving chunk sizes. *)
      let chunk = ref (max 1 (Array.length !best / 2)) in
      while !chunk >= 1 && !replays < max_replays do
        let i = ref 0 in
        while !i < Array.length !best && !replays < max_replays do
          let len = min !chunk (Array.length !best - !i) in
          (match try_smaller !best (remove_chunk !best !i len) with
          | Some norm -> best := norm (* retry the same offset *)
          | None -> i := !i + len)
        done;
        chunk := if !chunk = 1 then 0 else !chunk / 2
      done;
      (* Phase 2: zero each nonzero choice. *)
      let i = ref 0 in
      while !i < Array.length !best && !replays < max_replays do
        (if !best.(!i).Decision.choice > 0 then
           let cand = Array.copy !best in
           cand.(!i) <- Decision.zeroed cand.(!i);
           match try_smaller !best cand with
           | Some norm -> best := norm
           | None -> ());
        incr i
      done;
      (* Phase 3: 1-minimality fixpoint — single removals and single
         decrements until neither reproduces. *)
      let improved = ref true in
      while !improved && !replays < max_replays do
        improved := false;
        let i = ref 0 in
        while !i < Array.length !best && !replays < max_replays do
          (match try_smaller !best (remove_chunk !best !i 1) with
          | Some norm ->
              best := norm;
              improved := true
          | None ->
              if !best.(!i).Decision.choice > 0 then (
                let cand = Array.copy !best in
                cand.(!i) <- Decision.resolve cand.(!i) (cand.(!i).Decision.choice - 1);
                match try_smaller !best cand with
                | Some norm ->
                    best := norm;
                    improved := true
                | None -> incr i)
              else incr i)
        done
      done;
      ( {
          replays = !replays;
          initial_len = Array.length script0;
          final_len = Array.length !best;
          clamped = !clamped;
        },
        !best )
