type prof_cell = { mutable p_events : int; mutable p_wall : float }

(* The event queue is an index heap over one int array. Heap entry [i]
   occupies [heap.(4i) .. heap.(4i+3)]: the event's [time], [prio], [seq]
   and the [slot] where its payload lives. The payload ([kind], [action])
   sits in slot-indexed arrays that are written once when the event is
   pushed; the action is cleared when it is popped, so no dead closure
   stays reachable (a kind is a label and is overwritten on reuse). Slots
   are reused through a
   free-slot stack kept in the slot field of the entries past [len], so
   those fields always hold a permutation of the slot ids. Sifts move a
   hole, four int writes per level into one cache-local entry, so no heap
   operation stores a pointer and none crosses the write barrier. This is
   the simulator's hottest path: every message delivery is one push and
   one pop.

   (time, prio, seq) is a strict total order because [seq] is unique, so
   the sequence of pops is fully determined by the keys pushed and not by
   the heap's layout or sift algorithm: any correct heap pops the same
   events in the same order, and a seeded run executes the identical
   schedule. *)
type t = {
  mutable clock : int;
  mutable next_seq : int;
  mutable n_executed : int;
  mutable heap : int array;
  mutable kinds : string array;
  mutable actions : (unit -> unit) array;
  mutable len : int;
  (* Tie-break perturbation hook for schedule exploration: when set, each
     scheduled event asks the callback for a priority keyed on its [kind];
     ordering becomes (time, prio, seq). When unset every event gets
     priority 0 and (time, 0, seq) degenerates to the historical
     (time, seq) FIFO order, so seeded runs without a hook installed
     execute byte-identical schedules. *)
  mutable tie_perturb : (string -> int) option;
  (* Profiling is host-side observation only: it reads [Sys.time] and the
     queue size but never touches simulated time or event order, so
     enabling it cannot perturb a seeded run. *)
  mutable profiling : bool;
  mutable sample_every : int;
  profile : (string, prof_cell) Hashtbl.t;
  depths : Stats.Recorder.t;
}

let no_op () = ()

let initial_capacity = 8

(* A heap of [cap] entries whose slot fields hold the slot ids in order. *)
let make_heap cap =
  let h = Array.make (4 * cap) 0 in
  for i = 0 to cap - 1 do
    h.((4 * i) + 3) <- i
  done;
  h

let create () =
  {
    clock = 0;
    next_seq = 0;
    n_executed = 0;
    heap = make_heap initial_capacity;
    kinds = Array.make initial_capacity "";
    actions = Array.make initial_capacity no_op;
    len = 0;
    tie_perturb = None;
    profiling = false;
    sample_every = 1024;
    profile = Hashtbl.create 16;
    depths = Stats.Recorder.create ();
  }

let now t = t.clock

let extend a cap fill =
  let b = Array.make (2 * cap) fill in
  Array.blit a 0 b 0 cap;
  b

(* Only called when every slot is live, so the new slots [cap, 2 cap) are
   exactly the free ones and go into the new entries' slot fields. *)
let grow t =
  let cap = Array.length t.actions in
  if t.len = cap then begin
    let heap = make_heap (2 * cap) in
    Array.blit t.heap 0 heap 0 (4 * cap);
    t.heap <- heap;
    t.kinds <- extend t.kinds cap "";
    t.actions <- extend t.actions cap no_op
  end

(* Does heap entry [i] precede the key (time, prio, seq)? Lexicographic;
   prio is 0 for every event unless a tie-break perturbation hook is
   installed, in which case it reorders same-instant events; seq breaks the
   remaining ties FIFO, which is what makes runs reproducible. Indices stay
   below [t.len], within the array. *)
let precedes (h : int array) i (time : int) (prio : int) (seq : int) =
  let b = 4 * i in
  let ti = Array.unsafe_get h b in
  ti < time
  || ti = time
     &&
     let pi = Array.unsafe_get h (b + 1) in
     pi < prio || (pi = prio && Array.unsafe_get h (b + 2) < seq)

let move (h : int array) ~src ~dst =
  let s = 4 * src and d = 4 * dst in
  Array.unsafe_set h d (Array.unsafe_get h s);
  Array.unsafe_set h (d + 1) (Array.unsafe_get h (s + 1));
  Array.unsafe_set h (d + 2) (Array.unsafe_get h (s + 2));
  Array.unsafe_set h (d + 3) (Array.unsafe_get h (s + 3))

let put (h : int array) i time prio seq slot =
  let b = 4 * i in
  Array.unsafe_set h b time;
  Array.unsafe_set h (b + 1) prio;
  Array.unsafe_set h (b + 2) seq;
  Array.unsafe_set h (b + 3) slot

(* Move the hole at [i] up past every parent the entry precedes, then fill
   it. *)
let sift_up h i time prio seq slot =
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if precedes h parent time prio seq then continue := false
    else begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
  done;
  put h !i time prio seq slot

(* Move the hole at [i] down past every smaller child among the first [n]
   entries, then fill it. *)
let sift_down h n i time prio seq slot =
  let i = ref i and continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= n then continue := false
    else begin
      let right = left + 1 in
      let l = 4 * left in
      let child =
        if
          right < n
          && precedes h right (Array.unsafe_get h l)
               (Array.unsafe_get h (l + 1))
               (Array.unsafe_get h (l + 2))
        then right
        else left
      in
      if precedes h child time prio seq then begin
        move h ~src:child ~dst:!i;
        i := child
      end
      else continue := false
    end
  done;
  put h !i time prio seq slot

let schedule_at ?(kind = "other") t ~at action =
  let time = if at < t.clock then t.clock else at in
  let prio = match t.tie_perturb with None -> 0 | Some f -> f kind in
  grow t;
  let i = t.len in
  let h = t.heap in
  let slot = h.((4 * i) + 3) in
  t.kinds.(slot) <- kind;
  t.actions.(slot) <- action;
  t.len <- i + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  sift_up h i time prio seq slot

let schedule ?kind t ~after action =
  let after = if after < 0 then 0 else after in
  schedule_at ?kind t ~at:(t.clock + after) action

let set_tie_perturb t f = t.tie_perturb <- f

let enable_profiling ?(sample_queue_every = 1024) t =
  t.profiling <- true;
  t.sample_every <- max 1 sample_queue_every

let profiling_enabled t = t.profiling

let prof_cell t kind =
  match Hashtbl.find_opt t.profile kind with
  | Some c -> c
  | None ->
    let c = { p_events = 0; p_wall = 0.0 } in
    Hashtbl.add t.profile kind c;
    c

let profile t =
  Hashtbl.fold (fun k c acc -> (k, c.p_events, c.p_wall) :: acc) t.profile []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let queue_depths t = t.depths

(* Pop the root: its slot's action is cleared so the queue never keeps a
   dead closure (or its environment) alive past execution, and the slot
   returns to the free stack at the position the last entry vacates. *)
let step t =
  if t.len = 0 then false
  else begin
    let h = t.heap in
    let time = h.(0) in
    let slot = h.(3) in
    let kind = t.kinds.(slot) in
    let action = t.actions.(slot) in
    t.actions.(slot) <- no_op;
    let last = t.len - 1 in
    t.len <- last;
    let b = 4 * last in
    if last > 0 then
      sift_down h last 0 h.(b) h.(b + 1) h.(b + 2) h.(b + 3);
    h.(b + 3) <- slot;
    t.clock <- time;
    t.n_executed <- t.n_executed + 1;
    if t.profiling then begin
      if t.n_executed mod t.sample_every = 0 then
        Stats.Recorder.add t.depths t.len;
      let t0 = Sys.time () in
      action ();
      let cell = prof_cell t kind in
      cell.p_events <- cell.p_events + 1;
      cell.p_wall <- cell.p_wall +. (Sys.time () -. t0)
    end
    else action ();
    true
  end

let run ?until ?max_events t =
  let stop_time = match until with None -> max_int | Some u -> u in
  let budget = ref (match max_events with None -> max_int | Some m -> m) in
  let continue = ref true in
  while !continue && !budget > 0 do
    if t.len = 0 then continue := false
    else if t.heap.(0) > stop_time then begin
      t.clock <- stop_time;
      continue := false
    end
    else begin
      ignore (step t);
      decr budget
    end
  done

let pending t = t.len

let executed t = t.n_executed

let us n = n

let ms f = int_of_float (f *. 1_000.0 +. 0.5)

let sec f = int_of_float (f *. 1_000_000.0 +. 0.5)

let to_ms n = float_of_int n /. 1_000.0

let to_sec n = float_of_int n /. 1_000_000.0
