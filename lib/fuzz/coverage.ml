open Compass_rmc
open Compass_machine

(* Execution coverage for schedule fuzzing.

   Two signals, both computed from the recorded access log:

   - a *fingerprint* per execution — an FNV-style fold over the accesses
     (thread, location, kind, mode, message timestamps, site) — so the
     tracker counts how many observably distinct executions a budget
     bought, and the corpus can keep only inputs that reached a new one;

   - *site-pair* coverage: for every access, the most recent prior
     conflicting access by another thread (same location, at least one a
     write) contributes an ordered pair of labels.  An access's label is
     its site when the program supplied one, else kind @ location
     ("W@node[1]").  Pairs are the classic interleaving-coverage metric:
     a schedule that first exhibits "enqueue's tail CAS before dequeue's
     head load" covers a pair no thread-local run can.

   Both are deterministic functions of the execution, so coverage-guided
   runs stay reproducible for a fixed seed.

   Site pairs are counted on integers.  Each tracker interns its labels
   to ids the first time it meets them and keys a pair by its two ids.
   Per location it keeps a slot that lives as long as the tracker: the
   ids of the labels met there, and each thread's last access, stamped
   with the execution that made it, so a new execution invalidates the
   old entries by bumping the stamp instead of building fresh tables.
   After its first meeting an access costs no string operation: sites
   are matched by physical equality (programs pass literals), and an
   unlabelled access's id stays valid while its block keeps the very
   name string it was formatted under ({!Loc.block_name}).  Block names
   are global and bases can be named differently from one schedule to
   the next, so that check is needed. *)

type feedback = { fresh : bool; new_pairs : int }

(* One location's state, reused across executions. *)
type slot = {
  mutable sites : (string * int) list;
      (** site labels met here and their ids, one entry per id *)
  mutable block : string option;  (** the name [anon] was formatted under *)
  anon : int array;
      (** per kind (R, W, U): the id of this location's unlabelled label,
          -1 until formatted *)
  mutable stamp : int array;
      (** per thread column ([tid + 1]; the set-up thread is -1): the
          execution of that thread's last access here *)
  mutable aid : int array;  (** ... its aid *)
  mutable last : int array;  (** ... its label id, [lsl 1], [lor 1] if it wrote *)
}

type t = {
  fps : (int, unit) Hashtbl.t;
  ids : (string, int) Hashtbl.t;  (** interned labels *)
  slots : (int, slot) Hashtbl.t;  (** by {!Loc.hash} *)
  pairs : (int, unit) Hashtbl.t;  (** [(prev lsl 31) lor next] *)
  mutable epoch : int;  (** the current execution's stamp *)
  mutable new_pair_execs : int;
}

let create () =
  {
    fps = Hashtbl.create 199;
    ids = Hashtbl.create 63;
    slots = Hashtbl.create 63;
    pairs = Hashtbl.create 63;
    epoch = 0;
    new_pair_execs = 0;
  }

let distinct t = Hashtbl.length t.fps
let pair_count t = Hashtbl.length t.pairs
let new_pair_execs t = t.new_pair_execs

let access_hash (a : Access.t) =
  match a with
  | Access.Access r ->
      Hashtbl.hash
        ( r.tid,
          Loc.hash r.loc,
          Hashtbl.hash r.kind,
          Hashtbl.hash r.mode,
          Hashtbl.hash r.read_ts,
          Hashtbl.hash r.write_ts,
          r.site )
  | Access.Fence r -> Hashtbl.hash (r.tid, Hashtbl.hash r.fence, r.site)

(* FNV-1a-style fold; masked to stay a non-negative OCaml int. *)
let fingerprint accesses =
  List.fold_left
    (fun h a -> ((h * 0x01000193) lxor access_hash a) land max_int)
    0x811c9dc5 accesses

(* Ids stay below 2^31, so that two of them pack into a pair key. *)
let intern t lbl =
  match Hashtbl.find_opt t.ids lbl with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.ids in
      if id >= 1 lsl 31 then failwith "Coverage: too many labels";
      Hashtbl.replace t.ids lbl id;
      id

let slot t loc =
  let k = Loc.hash loc in
  match Hashtbl.find_opt t.slots k with
  | Some s -> s
  | None ->
      let s =
        {
          sites = [];
          block = None;
          anon = Array.make 3 (-1);
          stamp = [||];
          aid = [||];
          last = [||];
        }
      in
      Hashtbl.replace t.slots k s;
      s

let rec find_site site = function
  | [] -> -1
  | (s, id) :: rest -> if s == site then id else find_site site rest

let site_id t s site =
  match find_site site s.sites with
  | -1 ->
      (* a site string not met here as this object: intern its text and
         keep this object in place of any other with the same text *)
      let id = intern t site in
      s.sites <- (site, id) :: List.filter (fun (_, i) -> i <> id) s.sites;
      id
  | id -> id

let same_block a b =
  match (a, b) with
  | Some x, Some y -> x == y
  | None, None -> true
  | _ -> false

let anon_id t s loc (kind : Access.kind) =
  let block = Loc.block_name (Loc.base loc) in
  if not (same_block block s.block) then begin
    s.block <- block;
    Array.fill s.anon 0 3 (-1)
  end;
  let k, letter =
    match kind with
    | Access.Load -> (0, "R")
    | Access.Store -> (1, "W")
    | Access.Update -> (2, "U")
  in
  match s.anon.(k) with
  | -1 ->
      let id = intern t (letter ^ "@" ^ Loc.to_string loc) in
      s.anon.(k) <- id;
      id
  | id -> id

let widen s cols =
  let grow a = Array.append a (Array.make (cols - Array.length a) 0) in
  s.stamp <- grow s.stamp;
  s.aid <- grow s.aid;
  s.last <- grow s.last

(* Record one execution's access log; the returned feedback says whether
   it reached a new fingerprint and how many new site pairs it covered. *)
let note t accesses =
  let fp = fingerprint accesses in
  let fresh = not (Hashtbl.mem t.fps fp) in
  if fresh then Hashtbl.replace t.fps fp ();
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let news = ref 0 in
  List.iter
    (fun (a : Access.t) ->
      match a with
      | Access.Fence _ -> ()
      | Access.Access r ->
          let s = slot t r.loc in
          let lbl =
            match r.site with
            | Some site -> site_id t s site
            | None -> anon_id t s r.loc r.kind
          in
          let writes = r.kind <> Access.Load in
          let col = r.tid + 1 in
          if col >= Array.length s.stamp then widen s (col + 1);
          (* the latest of the other threads' last accesses here that
             conflicts with this one *)
          let prev = ref (-1) in
          for c = 0 to Array.length s.stamp - 1 do
            if
              c <> col
              && s.stamp.(c) = epoch
              && (writes || s.last.(c) land 1 = 1)
              && (!prev < 0 || s.aid.(c) > s.aid.(!prev))
            then prev := c
          done;
          if !prev >= 0 then begin
            let key = ((s.last.(!prev) lsr 1) lsl 31) lor lbl in
            if not (Hashtbl.mem t.pairs key) then begin
              Hashtbl.replace t.pairs key ();
              incr news
            end
          end;
          s.stamp.(col) <- epoch;
          s.aid.(col) <- r.aid;
          s.last.(col) <- (lbl lsl 1) lor Bool.to_int writes)
    accesses;
  if !news > 0 then t.new_pair_execs <- t.new_pair_execs + 1;
  { fresh; new_pairs = !news }

(* Fold [src] into [dst] — how the parallel driver merges per-worker
   trackers (in worker order, for determinism).  [src]'s pairs are
   carried over in [dst]'s ids, through the labels both interned. *)
let merge dst src =
  Hashtbl.iter (fun k () -> Hashtbl.replace dst.fps k ()) src.fps;
  let into = Array.make (Hashtbl.length src.ids) 0 in
  Hashtbl.iter (fun lbl id -> into.(id) <- intern dst lbl) src.ids;
  Hashtbl.iter
    (fun k () ->
      Hashtbl.replace dst.pairs
        ((into.(k lsr 31) lsl 31) lor into.(k land ((1 lsl 31) - 1)))
        ())
    src.pairs;
  dst.new_pair_execs <- dst.new_pair_execs + src.new_pair_execs
