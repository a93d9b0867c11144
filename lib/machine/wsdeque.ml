(* Native Chase-Lev work-stealing deque [Chase & Lev, SPAA'05] — the
   host-side analogue of the modelled deque in lib/dstruct/chaselev.ml,
   used by the exploration driver to hold each worker's pending tasks and
   hand them out across domains.

   The owner pushes and pops at the *bottom* (LIFO); thieves steal at the
   *top* (FIFO).  For DFS work this is exactly right: the owner keeps
   working depth-first on the subtree it just split, while thieves take
   the shallowest — hence largest — pending subtrees.

   Everything shared is an [Atomic]: the two indices, the buffer pointer,
   and each buffer cell.  OCaml's atomics are seq_cst, which makes this
   the conservatively-fenced variant of Le et al. [PPoPP'13]; per-op cost
   is irrelevant here because each task is a whole machine execution.

   Indices grow monotonically (the buffer is circular, indices are not),
   so CAS on [top] has no ABA.  The buffer only grows; cells in a
   superseded buffer are never written again, so a thief that read the
   old buffer either wins its CAS — in which case the cell it read was
   the live value for that index — or loses and discards the read. *)

type 'a t = {
  top : int Atomic.t;  (** next index to steal *)
  bottom : int Atomic.t;  (** next index to push *)
  buf : 'a option Atomic.t array Atomic.t;  (** circular; length a power of 2 *)
}

let min_capacity = 64

let make_buf n = Array.init n (fun _ -> Atomic.make None)

let create () =
  {
    top = Atomic.make 0;
    bottom = Atomic.make 0;
    buf = Atomic.make (make_buf min_capacity);
  }

(* Owner-only: double the buffer, copying the live range [t, b). *)
let grow q ~b ~t =
  let old = Atomic.get q.buf in
  let n = Array.length old in
  let nu = make_buf (2 * n) in
  for i = t to b - 1 do
    Atomic.set nu.(i land ((2 * n) - 1)) (Atomic.get old.(i land (n - 1)))
  done;
  Atomic.set q.buf nu

let push q x =
  let b = Atomic.get q.bottom and t = Atomic.get q.top in
  (let buf = Atomic.get q.buf in
   if b - t >= Array.length buf - 1 then grow q ~b ~t);
  let buf = Atomic.get q.buf in
  Atomic.set buf.(b land (Array.length buf - 1)) (Some x);
  Atomic.set q.bottom (b + 1)

let pop q =
  let b = Atomic.get q.bottom - 1 in
  Atomic.set q.bottom b;
  let t = Atomic.get q.top in
  if b < t then begin
    (* Empty: restore bottom. *)
    Atomic.set q.bottom t;
    None
  end
  else
    let buf = Atomic.get q.buf in
    let cell = buf.(b land (Array.length buf - 1)) in
    let x = Atomic.get cell in
    if b > t then begin
      (* Drop the reference so a popped task does not outlive its run.
         Only the owner clears, and only a cell no thief can claim. *)
      Atomic.set cell None;
      x
    end
    else begin
      (* Last element: race thieves for it via the CAS on [top]. *)
      let won = Atomic.compare_and_set q.top t (t + 1) in
      Atomic.set q.bottom (t + 1);
      if won then x else None
    end

let steal q =
  let t = Atomic.get q.top in
  let b = Atomic.get q.bottom in
  if t >= b then None
  else
    let buf = Atomic.get q.buf in
    let x = Atomic.get buf.(t land (Array.length buf - 1)) in
    if Atomic.compare_and_set q.top t (t + 1) then x else None
