(* Global simulated memory: an allocator plus one history per location.

   Memory is mutable: an explorer either creates a fresh store per
   execution or checkpoints one store with [snapshot] and rolls it back
   with [restore].

   Locations get *dense ids*: blocks are numbered in allocation order and a
   block's cells occupy a contiguous id range, so [loc -> history] is two
   array reads and a bounds check — no hashing on the hot path, and a
   snapshot walk is an array sweep.  Deallocation only happens via
   [restore], which rolls the allocator back to a prefix, so the id space
   truncates exactly like everything else. *)

type policy = [ `Append | `Gap ]

type snapshot = {
  s_version : int;
  s_n_blocks : int;
  s_n_locs : int;
  s_lens : int array;
      (** the length of each history, aligned with {!t.hists} — its whole
          rollback state, unboxed *)
}

type t = {
  mutable block_start : int array;  (** id of block [b]'s first cell *)
  mutable block_size : int array;
  mutable n_blocks : int;
  mutable hists : History.t array;  (** indexed by dense location id *)
  mutable n_locs : int;
  policy : policy;
  mutable version : int;
      (** identifies the store's content: fresh after every mutation, set
          back to the snapshot's version on restore — so an unchanged
          version means an unchanged store and snapshots can be reused *)
  mutable vnext : int;  (** next fresh version (monotone, never reused) *)
  mutable snap_cache : snapshot option;
}

type error =
  | Race of { loc : Loc.t; tid : int; kind : string }
  | Unallocated of Loc.t
  | Uninitialised of { loc : Loc.t; tid : int }

let pp_error ppf = function
  | Race { loc; tid; kind } ->
      Format.fprintf ppf "data race on %a by thread %d (%s)" Loc.pp loc tid kind
  | Unallocated l -> Format.fprintf ppf "access to unallocated %a" Loc.pp l
  | Uninitialised { loc; tid } ->
      Format.fprintf ppf "uninitialised non-atomic read of %a by thread %d"
        Loc.pp loc tid

exception Error of error

let error e = raise (Error e)

let create ?(policy = `Append) () =
  {
    block_start = [||];
    block_size = [||];
    n_blocks = 0;
    hists = [||];
    n_locs = 0;
    policy;
    version = 0;
    vnext = 1;
    snap_cache = None;
  }

let touch mem =
  mem.version <- mem.vnext;
  mem.vnext <- mem.vnext + 1

let grow_int_array a len =
  let cap = Array.length a in
  if len < cap then a
  else begin
    let r = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
    Array.blit a 0 r 0 cap;
    r
  end

let alloc mem ~name ~size ~init_value =
  touch mem;
  let base = mem.n_blocks in
  mem.block_start <- grow_int_array mem.block_start base;
  mem.block_size <- grow_int_array mem.block_size base;
  mem.block_start.(base) <- mem.n_locs;
  mem.block_size.(base) <- size;
  mem.n_blocks <- base + 1;
  Loc.register_name ~base ~name;
  for off = 0 to size - 1 do
    let loc = Loc.make ~base ~off in
    let h = History.create ~loc ~init_value () in
    let cap = Array.length mem.hists in
    if mem.n_locs >= cap then begin
      let r = Array.make (if cap = 0 then 16 else 2 * cap) h in
      Array.blit mem.hists 0 r 0 cap;
      mem.hists <- r
    end;
    mem.hists.(mem.n_locs) <- h;
    mem.n_locs <- mem.n_locs + 1
  done;
  Loc.make ~base ~off:0

(* Dense id of [l], or a raised [Unallocated]: two array reads and two
   bounds checks, no hashing. *)
let loc_id mem (l : Loc.t) =
  let b = l.Loc.base in
  if b < 0 || b >= mem.n_blocks || l.Loc.off < 0
     || l.Loc.off >= mem.block_size.(b)
  then error (Unallocated l);
  mem.block_start.(b) + l.Loc.off

let hist mem l = mem.hists.(loc_id mem l)

(* The messages a thread with view-of-[l] [from] may read, counted and
   indexed without building a list — the machine's hot path.  Non-atomic
   reads are handled separately in [na_read]. *)
let read_arity mem l ~from = History.readable_arity (hist mem l) ~from
let read_nth mem l ~from n = History.readable_nth (hist mem l) ~from n
let sat_arity mem l ~from ~sat = History.sat_arity (hist mem l) ~from ~sat
let sat_exists mem l ~from ~sat = History.sat_exists (hist mem l) ~from ~sat
let sat_nth mem l ~from ~sat n = History.sat_nth (hist mem l) ~from ~sat n
let latest mem l = History.latest (hist mem l)
let max_ts mem l = History.max_ts (hist mem l)

(* Iterate the mo-maximal value of every allocated cell — the static
   analyzer seeds its abstract store from a built machine's memory this
   way (after setup, "latest" is simply "the setup's write"). *)
let iter_latest mem f =
  for base = 0 to mem.n_blocks - 1 do
    for off = 0 to mem.block_size.(base) - 1 do
      let l = Loc.make ~base ~off in
      f l !(latest mem l).Msg.value
    done
  done

(* The [`Append] policy admits exactly one fresh timestamp: one past the
   end — computed without consing the singleton choice list. *)
let append_ts mem l ~above = Timestamp.max (max_ts mem l) above + 1

(* Non-atomic access check: the accessing thread must have observed the
   mo-maximal write to the location, otherwise the access races with that
   write (ORC11 makes racy non-atomics undefined behaviour; we *detect* and
   report them instead).  Returns the unique readable message. *)
let na_check mem l ~(tv : Tview.t) ~tid ~kind =
  let h = hist mem l in
  let m = History.latest h in
  if not (Timestamp.leq (History.max_ts h) (View.get tv.Tview.cur l)) then
    error (Race { loc = l; tid; kind });
  m

let na_read mem l ~tv ~tid =
  let m = na_check mem l ~tv ~tid ~kind:"na-read" in
  (match !m.Msg.value with
  | Value.Poison -> error (Uninitialised { loc = l; tid })
  | _ -> ());
  m

(* Candidate timestamps for a new write by a thread whose view of [l] is
   [above]; the new write must be mo-after everything the writer observed. *)
let write_ts_choices mem l ~above =
  History.fresh_ts (hist mem l) ~policy:mem.policy ~above

let add_msg mem (m : Msg.t) =
  touch mem;
  History.add (hist mem m.loc) m

(* -- snapshot / restore ------------------------------------------------------

   A snapshot captures the allocator position plus the {!History.length}
   of every location — one array sweep; nothing message-level is
   duplicated.

   [restore] mutates the existing {!History.t} records in place (callers
   may hold handles to them) and truncates the allocator, dropping
   locations allocated after the snapshot; re-executing the suffix
   re-allocates them at the same bases and ids.  Restore targets are
   always states along the current execution's prefix, so the snapshotted
   locations are exactly the first [s_n_locs] ids, and each history can
   take back its midpoint writes from its undo log ({!History.truncate}).

   Snapshots are version-cached: reads don't [touch] the store, so the
   checkpoint-per-step explorer reuses one snapshot across read-only
   steps instead of rebuilding the array. *)

let build_snapshot mem =
  {
    s_version = mem.version;
    s_n_blocks = mem.n_blocks;
    s_n_locs = mem.n_locs;
    s_lens = Array.init mem.n_locs (fun i -> History.length mem.hists.(i));
  }

let snapshot mem =
  match mem.snap_cache with
  | Some s when s.s_version = mem.version -> s
  | _ ->
      let s = build_snapshot mem in
      mem.snap_cache <- Some s;
      s

let restore mem s =
  if s.s_n_locs > mem.n_locs then
    invalid_arg "Memory.restore: snapshot from a different store";
  mem.n_blocks <- s.s_n_blocks;
  mem.n_locs <- s.s_n_locs;
  for i = 0 to s.s_n_locs - 1 do
    History.truncate mem.hists.(i) s.s_lens.(i)
  done;
  (* The store's content is now exactly what [s] captured. *)
  mem.version <- s.s_version;
  mem.snap_cache <- Some s

let pp ppf mem =
  for b = 0 to mem.n_blocks - 1 do
    for off = 0 to mem.block_size.(b) - 1 do
      let l = Loc.make ~base:b ~off in
      Format.fprintf ppf "%a: %a@." Loc.pp l History.pp
        mem.hists.(mem.block_start.(b) + off)
    done
  done
