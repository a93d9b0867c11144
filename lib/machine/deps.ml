open Compass_rmc

(* Dependency relations, shared by the race detector and the DPOR engine.

   Two views of the same idea live here:

   - {!sweep}: the RC11-synchronisation vector-clock sweep over recorded
     access logs.  This used to be private to the analysis-side race
     detector ({!Compass_analysis.Races}); it moved here unchanged so the
     DPOR layer and the race detector share one happens-before engine.

   - the step log ({!steps}): the Mazurkiewicz-trace order over a
     machine-step sequence, built from the same footprint independence
     relation the sleep sets use.  This is the dependency relation
     source-DPOR needs: steps of the same thread are ordered by program
     order, steps of different threads only by chains of dependent
     (non-commuting) steps, and a {e reversible race} is a dependent pair
     with no intermediate path — exactly the pairs whose reversal reaches
     a new Mazurkiewicz trace. *)

(* -- footprints --------------------------------------------------------------

   The footprint of a thread's next operation, abstracted to what matters
   for commutation with another thread's step: the location it reads or
   writes, or [FLocal] (no shared effect: yields, thread ids, non-SC
   fences, which only move the thread's own view) or [FGlobal]
   (conservatively dependent on everything: allocation renumbers blocks,
   SC fences join the machine-global SC view).

   Two steps are independent when running them in either order yields the
   same machine state up to event-id renaming: accesses to different
   locations commute, and two reads of the same location commute because
   reads never change a history.

   Non-atomic accesses get their own variants ([FReadNa], [FWriteNa]).
   Independence is identical to their atomic counterparts — commutation
   only cares about the location and read/write polarity — but the
   reads-from–aware reduction must be able to tell them apart: the
   machine's na-race fault detection is order-sensitive, so only
   atomic-write/atomic-read race reversals may be pruned as
   rf-equivalent. *)

type footprint =
  | FRead of Loc.t
  | FWrite of Loc.t
  | FReadNa of Loc.t
  | FWriteNa of Loc.t
  | FLocal
  | FGlobal

let independent a b =
  match (a, b) with
  | FGlobal, _ | _, FGlobal -> false
  | FLocal, _ | _, FLocal -> true
  | (FRead _ | FReadNa _), (FRead _ | FReadNa _) -> true
  | ( (FRead la | FWrite la | FReadNa la | FWriteNa la),
      (FRead lb | FWrite lb | FReadNa lb | FWriteNa lb) ) ->
      not (Loc.equal la lb)

let pp_footprint ppf = function
  | FRead l -> Format.fprintf ppf "R%a" Loc.pp l
  | FWrite l -> Format.fprintf ppf "W%a" Loc.pp l
  | FReadNa l -> Format.fprintf ppf "Rna%a" Loc.pp l
  | FWriteNa l -> Format.fprintf ppf "Wna%a" Loc.pp l
  | FLocal -> Format.pp_print_string ppf "local"
  | FGlobal -> Format.pp_print_string ppf "global"

(* -- the RC11-synchronisation sweep over access logs -------------------------

   Recomputes happens-before with a vector-clock forward sweep — a
   genuinely different algorithm from {!Rc11}'s explicit transitive
   closure over (po ∪ asw ∪ sw) edge lists.  The sweep models RC11
   synchronisation (not the machine's operational views — rf alone never
   creates hb):

   - each access bumps its thread's own clock component and snapshots
     the thread clock; hb(a, b) iff b's snapshot includes a's stamp;
   - a write publishes a clock on its message: its own snapshot if it
     releases, the clock captured at the last release fence if it is
     atomic but relaxed, and bottom if non-atomic.  Updates additionally
     inherit the clock of the message they read — rf chains among
     updates, i.e. release sequences;
   - an acquire read joins the message clock into the thread clock; a
     relaxed atomic read parks it in a pending-acquire clock that the
     next acquire fence joins in; non-atomic reads never synchronise;
   - a release fence snapshots the thread clock for later relaxed
     writes; an SC fence additionally joins and updates one global
     clock, totally ordering SC fences;
   - fork/join edges (the asw of {!Rc11}): a spawned thread's first
     access joins the setup pseudo-thread's clock, and a post-join
     setup access joins every thread's clock.  (Setup runs solo,
     strictly before spawn and after join, so the eager join is exact.) *)

let mode_geq_rel = function Mode.Rel | Mode.AcqRel -> true | _ -> false
let mode_geq_acq = function Mode.Acq | Mode.AcqRel -> true | _ -> false
let mode_atomic = function Mode.Na -> false | _ -> true

let rel_fence = function
  | Mode.F_rel | Mode.F_acqrel | Mode.F_sc -> true
  | _ -> false

let acq_fence = function
  | Mode.F_acq | Mode.F_acqrel | Mode.F_sc -> true
  | _ -> false

(* The sweep.  Returns [knows] : aid -> aid -> bool, the hb predicate
   (irreflexive use only — callers never ask [knows a a]). *)
let sweep items =
  let n = Array.length items in
  Array.iteri (fun i a -> assert (Access.aid a = i)) items;
  let max_tid = Array.fold_left (fun m a -> max m (Access.tid a)) (-1) items in
  let nt = max_tid + 2 in
  (* thread slots: index 0 is the setup pseudo-thread (tid -1) *)
  let ix tid = tid + 1 in
  let bottom () = Array.make nt 0 in
  let join dst src =
    Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src
  in
  let cur = Array.init nt (fun _ -> bottom ()) in
  let dacq = Array.init nt (fun _ -> bottom ()) in
  let frel = Array.init nt (fun _ -> bottom ()) in
  let sc = ref (bottom ()) in
  let seq = Array.make nt 0 in
  let started = Array.make nt false in
  let msg : (Loc.t * Timestamp.t, int array) Hashtbl.t = Hashtbl.create 64 in
  let snap = Array.make n [||] in
  let stamp = Array.make n (0, 0) in
  Array.iter
    (fun a ->
      let tid = Access.tid a in
      let t = ix tid in
      (* fork: a spawned thread's first access inherits the setup clock. *)
      if not started.(t) then begin
        started.(t) <- true;
        if tid >= 0 then join cur.(t) cur.(ix (-1))
      end;
      (* join: a post-join setup access inherits every thread's clock. *)
      if tid = -1 then
        Array.iteri (fun u c -> if u <> t then join cur.(t) c) cur;
      match a with
      | Access.Access r ->
          let rclock =
            match r.read_ts with
            | Some ts -> Hashtbl.find_opt msg (r.loc, ts)
            | None -> None
          in
          (match rclock with
          | Some c when mode_geq_acq r.mode -> join cur.(t) c
          | Some c when mode_atomic r.mode -> join dacq.(t) c
          | _ -> () (* non-atomic reads never synchronise *));
          seq.(t) <- seq.(t) + 1;
          cur.(t).(t) <- seq.(t);
          stamp.(r.aid) <- (t, seq.(t));
          snap.(r.aid) <- Array.copy cur.(t);
          (match r.write_ts with
          | Some wts ->
              let published = bottom () in
              if mode_geq_rel r.mode then join published snap.(r.aid)
              else if mode_atomic r.mode then join published frel.(t);
              (* updates inherit the read message's clock: release
                 sequences as rf chains among updates *)
              (match (r.kind, rclock) with
              | Access.Update, Some c -> join published c
              | _ -> ());
              Hashtbl.replace msg (r.loc, wts) published
          | None -> ())
      | Access.Fence f ->
          if acq_fence f.fence then begin
            join cur.(t) dacq.(t);
            dacq.(t) <- bottom ()
          end;
          if f.fence = Mode.F_sc then join cur.(t) !sc;
          seq.(t) <- seq.(t) + 1;
          cur.(t).(t) <- seq.(t);
          stamp.(f.aid) <- (t, seq.(t));
          snap.(f.aid) <- Array.copy cur.(t);
          if rel_fence f.fence then frel.(t) <- Array.copy cur.(t);
          if f.fence = Mode.F_sc then sc := Array.copy cur.(t))
    items;
  fun a b ->
    let ta, sa = stamp.(a) in
    Array.length snap.(b) > 0 && snap.(b).(ta) >= sa

(* -- the step log: Mazurkiewicz order over machine steps ----------------------

   The (tid, footprint) sequence of the concurrent phase's machine steps,
   in execution order, with the trace order over it.  Two steps are
   dependent when they belong to the same thread (program order) or their
   footprints do not commute; the trace order is the transitive closure
   of dependency restricted to execution order.

   Each step gets one clock row when it is pushed: per thread [u], one
   plus the index of [u]'s last step trace-ordered at or before it (0 for
   none).  Indices of one thread's steps grow with its program order, so
   these are vector clocks and [hb] is one comparison.  Step j's row is
   the join of the rows of the earlier steps it depends on, taken from
   joins accumulated by the classes {!independent} distinguishes: each
   thread's last step (which covers its earlier ones), all [FGlobal]
   steps, all steps, and per location its reads and its writes.  Every
   step depends on its thread and on every [FGlobal] step; an [FGlobal]
   step on every step, a read on its location's writes, a write on its
   location's reads and writes, and an [FLocal] step on nothing more.

   The log is flat: one growable int array holds each step's tid,
   previous same-thread step, undo mark and clock row, next to an array
   of footprints.  The accumulators live in one int array too, and every
   change to one goes on an int undo stack as (index, old value); each
   step records the stack height it started at.  [truncate] pops back to
   the height of the first dropped step, so rolling the log back to a
   checkpoint costs the changes made since, as [History.truncate] does
   for [`Gap] writes.  Location slots made past the truncation point
   stay, their joins undone to zero, which is what an untouched location
   holds. *)

type steps = {
  threads : int;  (** clock width *)
  width : int;  (** a step's cells: [3 + threads] *)
  mutable len : int;
  mutable cells : int array;
      (** step j at [j * width]: its tid, the same thread's previous step
          (or -1), the undo height when it was pushed, then its clock row *)
  mutable fp : footprint array;
  mutable acc : int array;
      (** the accumulators, [threads] ints each: per thread one plus its
          last step (0 for none), the join of the [FGlobal] steps, the
          join of all steps, then per location slot the join of its reads
          and the join of its writes *)
  mutable slot_key : int array;  (** {!Loc.key} of each slot *)
  mutable slots : int;
  mutable undo : int array;  (** (accumulator index, old value) pairs *)
  mutable undo_len : int;
}

(* Fields of a step's cells. *)
let tid_at = 0
let prev_at = 1
let mark_at = 2
let row_at = 3

(* First capacities.  The int arrays start above the major heap's largest
   size class (128 words), so each is one block of its own size there:
   a mid-sized array would be the only tenant of a 32 KB pool of its
   size class. *)
let first_steps = 32
let first_ints = 160

let create ~threads =
  let width = 3 + threads in
  {
    threads;
    width;
    len = 0;
    cells = [||];
    fp = [||];
    acc = Array.make (max first_ints (3 * threads)) 0;
    slot_key = [||];
    slots = 0;
    undo = [||];
    undo_len = 0;
  }

let n_steps s = s.len
let step_tid s i = s.cells.((i * s.width) + tid_at)
let step_fp s i = s.fp.(i)

(* Offsets into [acc]. *)
let last_at = 0
let globals_at s = s.threads
let all_at s = 2 * s.threads
let reads_at s slot = (3 + (2 * slot)) * s.threads
let writes_at s slot = (4 + (2 * slot)) * s.threads

(* [a]'s first [len] cells in a fresh array of [cap] *)
let resize a len cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 len;
  b

let set s k v =
  if s.undo_len = Array.length s.undo then
    s.undo <- resize s.undo s.undo_len (max first_ints (2 * s.undo_len)) 0;
  s.undo.(s.undo_len) <- k;
  s.undo.(s.undo_len + 1) <- s.acc.(k);
  s.undo_len <- s.undo_len + 2;
  s.acc.(k) <- v

(* The slot of a location, made on first touch. *)
let slot s l =
  let k = Loc.key l in
  let i = ref 0 in
  while !i < s.slots && s.slot_key.(!i) <> k do incr i done;
  if !i = s.slots then begin
    if s.slots = Array.length s.slot_key then
      s.slot_key <- resize s.slot_key s.slots (max 8 (2 * s.slots)) 0;
    s.slot_key.(!i) <- k;
    s.slots <- s.slots + 1;
    let need = writes_at s !i + s.threads in
    if need > Array.length s.acc then
      s.acc <-
        resize s.acc (Array.length s.acc) (max need (2 * Array.length s.acc)) 0
  end;
  !i

let push s t f =
  let j = s.len and nt = s.threads and w = s.width in
  if j = Array.length s.fp then begin
    let cap = max first_steps (2 * j) in
    s.cells <- resize s.cells (j * w) (cap * w) 0;
    s.fp <- resize s.fp j cap FLocal
  end;
  (* first, since a new slot grows [s.acc] *)
  let sl =
    match f with
    | FRead l | FReadNa l | FWrite l | FWriteNa l -> slot s l
    | FLocal | FGlobal -> -1
  in
  let base = j * w and acc = s.acc and cells = s.cells in
  let row = base + row_at in
  let p = acc.(last_at + t) - 1 in
  if p >= 0 then Array.blit cells ((p * w) + row_at) cells row nt
  else Array.fill cells row nt 0;
  let join_from a =
    for u = 0 to nt - 1 do
      if acc.(a + u) > cells.(row + u) then cells.(row + u) <- acc.(a + u)
    done
  in
  join_from (globals_at s);
  (* [feeds]: the accumulator this step's row enters besides [all]; -1
     for [FLocal] *)
  let feeds =
    match f with
    | FGlobal ->
        join_from (all_at s);
        globals_at s
    | FLocal -> -1
    | FRead _ | FReadNa _ ->
        join_from (writes_at s sl);
        reads_at s sl
    | FWrite _ | FWriteNa _ ->
        join_from (reads_at s sl);
        join_from (writes_at s sl);
        writes_at s sl
  in
  cells.(row + t) <- j + 1;
  cells.(base + tid_at) <- t;
  cells.(base + prev_at) <- p;
  cells.(base + mark_at) <- s.undo_len;
  s.fp.(j) <- f;
  let join_into a =
    for u = 0 to nt - 1 do
      if cells.(row + u) > acc.(a + u) then set s (a + u) cells.(row + u)
    done
  in
  if feeds >= 0 then join_into feeds;
  join_into (all_at s);
  set s (last_at + t) (j + 1);
  s.len <- j + 1

let truncate s n =
  if n > s.len then invalid_arg "Deps.truncate: past the end of the log";
  if n < s.len then begin
    let h = s.cells.((n * s.width) + mark_at) in
    while s.undo_len > h do
      s.undo_len <- s.undo_len - 2;
      s.acc.(s.undo.(s.undo_len)) <- s.undo.(s.undo_len + 1)
    done;
    s.len <- n
  end

(* hb i j: step i is trace-ordered before step j (i < j in execution
   order; the predicate is about the partial order, not mere position). *)
let hb s i j =
  i < j && s.cells.((j * s.width) + row_at + step_tid s i) > i

(* A reversible race: a dependent pair of different-thread steps with no
   intermediate trace path — reversing it reaches a different
   Mazurkiewicz trace, so DPOR must schedule an alternative at the
   earlier step's pre-state.  [from] bounds the later step: only races
   whose {e later} member is at index >= [from] are reported (the
   explorer has already handled races wholly inside a replayed prefix).

   Read off the rows.  Of thread u's steps ordered before j, only the
   last, i (row j's entry for u), can race j directly: a later one would
   lie between them.  And i races j unless it is ordered before j's own
   previous step or another thread's last step ordered before j: any
   intermediate w, i ->hb w ->hb j, is of j's thread (so at or before
   that previous step) or of a third thread (so at or before its last
   step before j), and these steps are intermediates themselves.  So per
   j it costs O(threads^2), where a scan of earlier steps with a search
   for an intermediate costs O(j^2). *)
let races ?(from = 0) s =
  let nt = s.threads and cells = s.cells in
  let out = ref [] in
  for j = max 1 from to s.len - 1 do
    let base = j * s.width in
    let t = cells.(base + tid_at) and p = cells.(base + prev_at) in
    let row = base + row_at in
    let found = ref [] in
    for u = 0 to nt - 1 do
      let i = cells.(row + u) - 1 in
      if u <> t && i >= 0 && not (independent s.fp.(i) s.fp.(j)) then begin
        let covered = ref (p >= 0 && hb s i p) and v = ref 0 in
        while (not !covered) && !v < nt do
          if !v <> u && !v <> t then begin
            let w = cells.(row + !v) - 1 in
            if w >= 0 && hb s i w then covered := true
          end;
          incr v
        done;
        if not !covered then found := i :: !found
      end
    done;
    List.iter (fun i -> out := (i, j) :: !out) (List.sort Int.compare !found)
  done;
  List.rev !out
