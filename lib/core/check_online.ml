(* Incremental (online) witness verification. Semantics are exactly
   {!Witness.check} — legality, session order, and the mode's real-time
   constraint over the order claimed by the system's timestamps — but
   transactions are consumed one at a time, as the harness records them,
   instead of buffered and checked post-hoc.

   The structure exploits what the simulator gives us for free: records
   arrive in response order, and the claimed serialization order tracks real
   time closely, so almost every insert is an append. Per-key version orders
   are kept as sorted arrays indexed by the global order key, which makes
   the reads-from obligation of a new transaction a binary search and makes
   a late-arriving write invalidate exactly the reads in its key's affected
   window. Total cost is O(n log n + D) where D is the total displacement
   (positions shifted by out-of-arrival-order inserts) — near-linear for the
   histories our protocols produce, and metered so a pathological history
   degrades to an explicit [Unknown] (with a bounded {!Check_txn} search
   over the ambiguous suffix) rather than to quadratic work.

   Layout. Transactions are numbered by arrival. The order key
   (ts, rank, inv) of arrival [i] sits in a flat int array at [3i .. 3i+2],
   so the comparison every binary search makes reads three adjacent
   unboxed ints and never the boxed record. Everything kept per key — its writers and readers,
   each sorted by order key, and the map from written value to writer — is
   one record, found through a string-keyed table with a one-entry cache
   of the last key (a per-key checker sees one key throughout). Everything
   kept per process — its transactions sorted by invocation, and the
   largest invocation seen — is one record in an int-keyed table. Tables
   start small and grow with the history.

   Precondition (shared with every reads-from derivation in this repo):
   written values are unique per key. Uniqueness is what makes an eager
   legality verdict definitive — once some other version sits between a read
   and the writer of its observed value, no future insert can legalise it. *)

module W = Witness

type verdict =
  | Pass
  | Fail of string
  | Unknown of string

(* Growable int vector: the only container on the hot path. *)
module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let length v = v.len

  let get v i = Array.unsafe_get v.a i

  let ensure v =
    if v.len = Array.length v.a then begin
      let a = Array.make (if v.len = 0 then 8 else v.len * 2) 0 in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end

  (* Insert at position [p], shifting the tail right. Returns positions
     displaced (the incremental-work meter). *)
  let insert v p x =
    ensure v;
    let shifted = v.len - p in
    if shifted > 0 then Array.blit v.a p v.a (p + 1) shifted;
    v.a.(p) <- x;
    v.len <- v.len + 1;
    shifted
end

module Stbl = Hashtbl.Make (String)
module Itbl = Hashtbl.Make (Int)

type state =
  | Checking
  | Overflowed  (** work budget exhausted; remaining adds are buffered *)
  | Failed of string

type per_key = {
  writers : Ivec.t;  (** arrival indices of the key's writers, by order key *)
  readers : Ivec.t;  (** arrival indices of its (complete) readers, likewise *)
  writer_of : int Itbl.t;  (** written value -> writer (values unique/key) *)
}

type per_proc = {
  sess : Ivec.t;  (** the process's arrival indices by (inv, arrival) *)
  mutable last_inv : int;  (** largest invocation seen, for arrival order *)
}

type t = {
  mode : W.mode;
  work_budget : int;
  fallback_states : int;
  (* All transactions in arrival order; [n] of the slots are live. The
     order key of arrival [i] is [okey.(3i)], [okey.(3i+1)], [okey.(3i+2)]:
     its ts, rank and inv. *)
  mutable txns : W.txn array;
  mutable okey : int array;
  mutable n : int;
  (* Arrival indices sorted by the claimed order key (ts, rank, inv, arr). *)
  ord : Ivec.t;
  keys : per_key Stbl.t;
  (* One-entry cache in front of [keys]; [no_key] when empty. *)
  mutable last_key : W.key;
  mutable last_per_key : per_key;
  procs : per_proc Itbl.t;
  (* Reads whose writer had not arrived yet: (reader, key, value), settled
     at [result] once every record is in. *)
  mutable deferred : (int * W.key * W.value) list;
  (* Append fast-path real-time watermarks. *)
  mutable max_inv_all : int;
  mutable max_inv_mut : int;
  (* Arrival-order sanity: responses non-decreasing, per-process invocations
     non-decreasing. Holds for harness record streams; when violated the
     suffix fallback can no longer soundly confirm, only stay Unknown. *)
  mutable arrival_monotone : bool;
  mutable last_resp : int;
  mutable state : state;
  mutable pending : W.txn list;  (** reversed; buffered after overflow *)
  mutable n_pending : int;
  mutable work : int;
  mutable max_displacement : int;
}

let new_key () =
  { writers = Ivec.create (); readers = Ivec.create (); writer_of = Itbl.create 8 }

let no_key = new_key ()

let dummy_txn =
  { W.proc = 0; reads = []; writes = []; inv = 0; resp = 0; ts = 0; rank = 0 }

let create ?(work_budget = max_int) ?(fallback_states = 500_000) ~mode () =
  {
    mode;
    work_budget;
    fallback_states;
    txns = [||];
    okey = [||];
    n = 0;
    ord = Ivec.create ();
    keys = Stbl.create 8;
    last_key = "";
    last_per_key = no_key;
    procs = Itbl.create 8;
    deferred = [];
    max_inv_all = min_int;
    max_inv_mut = min_int;
    arrival_monotone = true;
    last_resp = min_int;
    state = Checking;
    pending = [];
    n_pending = 0;
    work = 0;
    max_displacement = 0;
  }

let n_added t = t.n + t.n_pending

let work t = t.work

let max_displacement t = t.max_displacement

(* Claimed-order comparison between arrival indices: (ts, rank, inv)
   lexicographically, arrival index as the final tie-break — the same total
   order {!Witness.order} sorts by. Reads only [okey]: this runs a few
   dozen times per transaction. *)
let cmp t i j =
  let k = t.okey and i3 = 3 * i and j3 = 3 * j in
  let a = Array.unsafe_get k i3 and b = Array.unsafe_get k j3 in
  if a <> b then Int.compare a b
  else
    let a = Array.unsafe_get k (i3 + 1) and b = Array.unsafe_get k (j3 + 1) in
    if a <> b then Int.compare a b
    else
      let a = Array.unsafe_get k (i3 + 2) and b = Array.unsafe_get k (j3 + 2) in
      if a <> b then Int.compare a b else Int.compare i j

let ts_of t i = t.okey.(3 * i)

let inv_of t i = t.okey.((3 * i) + 2)

(* First position in [v] whose element does not precede arrival index [i]
   in claimed order — [i]'s insertion point. Almost every insert is an
   append, so the last element is tried first: one comparison, and the
   binary search's cold probes are skipped. *)
let insertion_point t v i =
  let n = Ivec.length v in
  if n = 0 || cmp t (Ivec.get v (n - 1)) i < 0 then n
  else
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp t (Ivec.get v mid) i < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let per_key t key =
  if t.last_per_key != no_key && (key == t.last_key || String.equal key t.last_key)
  then t.last_per_key
  else begin
    let k =
      match Stbl.find_opt t.keys key with
      | Some k -> k
      | None ->
        let k = new_key () in
        Stbl.add t.keys key k;
        k
    in
    t.last_key <- key;
    t.last_per_key <- k;
    k
  end

let per_proc t proc =
  match Itbl.find_opt t.procs proc with
  | Some p -> p
  | None ->
    let p = { sess = Ivec.create (); last_inv = min_int } in
    Itbl.add t.procs proc p;
    p

let pp_value ppf = function
  | None -> Fmt.pf ppf "nil"
  | Some v -> Fmt.pf ppf "%d" v

let fail t msg = match t.state with Failed _ -> () | _ -> t.state <- Failed msg

let is_complete (x : W.txn) = x.W.resp <> max_int

let is_mutator (x : W.txn) = match x.W.writes with [] -> false | _ -> true

(* [List.assoc] with string equality rather than polymorphic compare. *)
let rec assoc key = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if String.equal k key then v else assoc key rest

(* The value arrival index [w] wrote to [key]. *)
let written_value t w key = assoc key t.txns.(w).W.writes

(* [a]'s first [n] elements in an array of twice the room (64 at first),
   for [width] elements per transaction. *)
let extend a ~width n fill =
  let b = Array.make (width * if n = 0 then 64 else n * 2) fill in
  Array.blit a 0 b 0 (width * n);
  b

let store_txn t i (x : W.txn) =
  if t.n = Array.length t.txns then begin
    t.txns <- extend t.txns ~width:1 t.n dummy_txn;
    t.okey <- extend t.okey ~width:3 t.n 0
  end;
  t.txns.(i) <- x;
  t.okey.(3 * i) <- x.W.ts;
  t.okey.((3 * i) + 1) <- x.W.rank;
  t.okey.((3 * i) + 2) <- x.W.inv;
  t.n <- t.n + 1

let add_work t d =
  t.work <- t.work + d;
  if d > t.max_displacement then t.max_displacement <- d

(* Validate the reads of the (complete) new transaction [i]. A read is
   settled eagerly when its verdict cannot change — satisfied when it sees
   the latest preceding write, failed when its value's (unique) writer is
   already placed incompatibly — and deferred when the writer simply has
   not arrived yet. *)
(* Incomplete txns (resp = max_int) never responded: their reads constrain
   nothing, mirroring Witness.check_legal. *)
let check_reads t i =
  if is_complete t.txns.(i) then
  List.iter
    (fun (key, v) ->
      match t.state with
      | Failed _ | Overflowed -> ()
      | Checking -> (
        let k = per_key t key in
        let writers = k.writers in
        let p = insertion_point t writers i in
        (* The latest preceding writer, or -1 when there is none. *)
        let latest = if p = 0 then -1 else Ivec.get writers (p - 1) in
        match v with
        | None ->
          (* A nil read with any preceding writer can never become legal. *)
          if latest >= 0 then
            fail t
              (Fmt.str "legality: txn %d read %s=nil but txn %d wrote %s=%d \
                        before it"
                 i key latest key (written_value t latest key))
        | Some v -> (
          match Itbl.find_opt k.writer_of v with
          | Some w when w = latest -> ()
          | Some w ->
            (* Present but not the latest predecessor: either another version
               interposes or the writer is ordered after the reader; no
               future insert can undo either. *)
            fail t
              (Fmt.str
                 "legality: txn %d read %s=%d from txn %d, but the order \
                  implies %a"
                 i key v w pp_value
                 (if latest < 0 then None else Some (written_value t latest key)))
          | None ->
            (* Writer not recorded yet (slow ack, unacknowledged commit swept
               in at the end): settle at finish. *)
            t.deferred <- (i, key, v) :: t.deferred)))
    t.txns.(i).W.reads

(* Insert the new transaction's writes. Readers strictly between the new
   version and the key's next writer were previously validated against an
   older version; with uniqueness, any of them that did not observe this
   value is now definitively illegal unless its own writer is still
   missing (then it stays deferred). *)
let insert_writes t i =
  List.iter
    (fun (key, v) ->
      let k = per_key t key in
      let writers = k.writers in
      let p = insertion_point t writers i in
      (match t.state with
      | Failed _ | Overflowed -> ()
      | Checking ->
        let readers = k.readers in
        let q0 = insertion_point t readers i in
        let next_writer =
          if p < Ivec.length writers then Some (Ivec.get writers p) else None
        in
        let q = ref q0 in
        let continue = ref true in
        while !continue && !q < Ivec.length readers do
          let r = Ivec.get readers !q in
          (match next_writer with
          | Some w when cmp t r w > 0 -> continue := false
          | _ ->
            (* [r = i]: a txn's own reads precede its writes (Witness replay
               order) and were already validated against the pre-state. *)
            (if r <> i && is_complete t.txns.(r) then
               match assoc key t.txns.(r).W.reads with
               | Some u when u = v -> ()
               | None ->
                 fail t
                   (Fmt.str
                      "legality: txn %d read %s=nil but txn %d (ts=%d) wrote \
                       %s=%d before it"
                      r key i (ts_of t i) key v)
               | Some u ->
                 if Itbl.mem k.writer_of u then
                   fail t
                     (Fmt.str
                        "legality: txn %d read %s=%d but txn %d (ts=%d) \
                         interposes %s=%d"
                        r key u i (ts_of t i) key v));
            incr q)
        done);
      Itbl.replace k.writer_of v i;
      add_work t (Ivec.insert writers p i))
    t.txns.(i).W.writes

let insert_reads t i =
  (* Incomplete transactions never responded: their reads constrain nothing
     and are never re-validated (mirrors Witness.check_legal). *)
  if is_complete t.txns.(i) then
    List.iter
      (fun (key, _) ->
        let readers = (per_key t key).readers in
        let p = insertion_point t readers i in
        add_work t (Ivec.insert readers p i))
      t.txns.(i).W.reads

(* Session order: along each process's invocation order, claimed-order
   positions must increase. Checking both neighbours at the insertion point
   maintains the invariant inductively. *)
let check_sessions t (pp : per_proc) i =
  let sess = pp.sess in
  let inv = inv_of t i in
  (* insertion point by (inv, arrival) *)
  let lo = ref 0 and hi = ref (Ivec.length sess) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let j = Ivec.get sess mid in
    let c =
      let inv_j = inv_of t j in
      if inv_j <> inv then Int.compare inv_j inv else Int.compare j i
    in
    if c < 0 then lo := mid + 1 else hi := mid
  done;
  let p = !lo in
  (match t.state with
  | Failed _ | Overflowed -> ()
  | Checking ->
    let proc = t.txns.(i).W.proc in
    if p > 0 && cmp t (Ivec.get sess (p - 1)) i > 0 then
      fail t
        (Fmt.str "session order: process %d's txns %d and %d inverted" proc
           (Ivec.get sess (p - 1)) i)
    else if p < Ivec.length sess && cmp t i (Ivec.get sess p) > 0 then
      fail t
        (Fmt.str "session order: process %d's txns %d and %d inverted" proc
           i (Ivec.get sess p)));
  add_work t (Ivec.insert sess p i)

let add t (x : W.txn) =
  match t.state with
  | Failed _ -> ()
  | Overflowed ->
    t.pending <- x :: t.pending;
    t.n_pending <- t.n_pending + 1
  | Checking ->
    let i = t.n in
    store_txn t i x;
    (* Arrival-order sanity for the suffix fallback. *)
    if is_complete x then begin
      if x.W.resp < t.last_resp then t.arrival_monotone <- false;
      if x.W.resp > t.last_resp then t.last_resp <- x.W.resp
    end;
    let pp = per_proc t x.W.proc in
    if x.W.inv < pp.last_inv then t.arrival_monotone <- false
    else pp.last_inv <- x.W.inv;
    (* Global claimed order. *)
    let p = insertion_point t t.ord i in
    let appended = p = Ivec.length t.ord in
    add_work t (Ivec.insert t.ord p i);
    (* Append fast-path real-time check: when [i] lands at the end, every
       other transaction precedes it, so the scan condition of the offline
       checker applies directly. Mid-order inserts are caught by the exact
       scans in [result]. *)
    if appended then begin
      match t.mode with
      | `Strict ->
        if x.W.resp < t.max_inv_all then
          fail t
            (Fmt.str
               "real-time: txn %d (resp=%d) serialized after a txn invoked at \
                %d"
               i x.W.resp t.max_inv_all)
      | `Rss ->
        if is_mutator x && x.W.resp < t.max_inv_mut then
          fail t
            (Fmt.str
               "real-time: mutator %d (resp=%d) serialized after a mutator \
                invoked at %d"
               i x.W.resp t.max_inv_mut)
      | `Sequential -> ()
    end;
    if x.W.inv > t.max_inv_all then t.max_inv_all <- x.W.inv;
    if is_mutator x && x.W.inv > t.max_inv_mut then t.max_inv_mut <- x.W.inv;
    check_reads t i;
    insert_reads t i;
    insert_writes t i;
    check_sessions t pp i;
    (match t.state with
    | Checking when t.work > t.work_budget -> t.state <- Overflowed
    | _ -> ())

(* {2 Finish-time checks} — the deferred read obligations plus the exact
   real-time scans of {!Witness.check_rt_mutators} / [check_rt_conflicts] /
   [check_rt_all], run once over the maintained order. *)

(* [`Missing] separates "the writer never arrived" from a placement
   violation: with a buffered overflow suffix the writer may simply be in
   the unchecked tail, so the caller downgrades it to Unknown. *)
let settle_deferred t =
  let rec go = function
    | [] -> `Ok
    | (r, key, v) :: rest -> (
      let k = per_key t key in
      match Itbl.find_opt k.writer_of v with
      | None ->
        `Missing
          (Fmt.str "legality: txn %d read %s=%d but no txn wrote it" r key v)
      | Some w ->
        let writers = k.writers in
        let p = insertion_point t writers r in
        if p > 0 && Ivec.get writers (p - 1) = w then go rest
        else
          `Fail
            (Fmt.str
               "legality: txn %d read %s=%d from txn %d, but the order \
                implies %a"
               r key v w pp_value
               (if p = 0 then None
                else Some (written_value t (Ivec.get writers (p - 1)) key))))
  in
  go t.deferred

let scan_rt_mutators t =
  let max_inv = ref min_int in
  let i = ref 0 in
  let r = ref (Ok ()) in
  while !r = Ok () && !i < Ivec.length t.ord do
    let id = Ivec.get t.ord !i in
    let x = t.txns.(id) in
    if x.W.writes <> [] then begin
      if x.W.resp < !max_inv then
        r :=
          Error
            (Fmt.str
               "real-time: mutator %d (resp=%d) serialized after a mutator \
                invoked at %d"
               id x.W.resp !max_inv);
      if x.W.inv > !max_inv then max_inv := x.W.inv
    end;
    incr i
  done;
  !r

let scan_rt_conflicts t =
  let max_reader_inv : int Stbl.t = Stbl.create 8 in
  let i = ref 0 in
  let r = ref (Ok ()) in
  while !r = Ok () && !i < Ivec.length t.ord do
    let id = Ivec.get t.ord !i in
    let x = t.txns.(id) in
    List.iter
      (fun (k, _) ->
        match Stbl.find_opt max_reader_inv k with
        | Some m when x.W.resp < m ->
          if !r = Ok () then
            r :=
              Error
                (Fmt.str
                   "real-time: writer %d of %s (resp=%d) serialized after a \
                    reader invoked at %d"
                   id k x.W.resp m)
        | Some _ | None -> ())
      x.W.writes;
    List.iter
      (fun (k, _) ->
        match Stbl.find_opt max_reader_inv k with
        | Some m when m >= x.W.inv -> ()
        | Some _ | None -> Stbl.replace max_reader_inv k x.W.inv)
      x.W.reads;
    incr i
  done;
  !r

let scan_rt_all t =
  let max_inv = ref min_int in
  let i = ref 0 in
  let r = ref (Ok ()) in
  while !r = Ok () && !i < Ivec.length t.ord do
    let id = Ivec.get t.ord !i in
    let x = t.txns.(id) in
    if x.W.resp < !max_inv then
      r :=
        Error
          (Fmt.str
             "real-time: txn %d (resp=%d) serialized after a txn invoked at %d"
             id x.W.resp !max_inv);
    if x.W.inv > !max_inv then max_inv := x.W.inv;
    incr i
  done;
  !r

let finish_scans t =
  match t.mode with
  | `Sequential -> Ok ()
  | `Rss -> (
    match scan_rt_mutators t with Error _ as e -> e | Ok () -> scan_rt_conflicts t)
  | `Strict -> scan_rt_all t

(* {2 Ambiguous-suffix fallback}

   When the claimed order diverges so far from arrival order that the
   incremental structure blew its work budget, the verified prefix and the
   buffered suffix are recombined as (prefix claimed order) ++ (any legal
   suffix order found by the bounded search). The composition is sound to
   {e confirm} because record streams are response-ordered: every suffix
   transaction responded after every prefix response, so no real-time or
   session edge can point from the suffix back into the prefix, and a
   synthetic initial transaction seeds the search with the prefix's final
   store. A suffix the search rejects is reported [Unknown], not [Fail] —
   serializations interleaving suffix transactions amid the prefix were
   never explored. *)

(* The synthetic initial writes, one per written key, sorted by key so the
   fallback search sees the same history however the key table is laid
   out. *)
let prefix_store t =
  Stbl.fold
    (fun key k acc ->
      if Ivec.length k.writers = 0 then acc
      else
        let last = Ivec.get k.writers (Ivec.length k.writers - 1) in
        (key, written_value t last key) :: acc)
    t.keys []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let fallback_model : W.mode -> Check_txn.model = function
  | `Strict -> Check_txn.Strict_serializable
  | `Rss -> Check_txn.Rss
  | `Sequential -> Check_txn.Process_ordered

let max_fallback_txns = 4096

let check_suffix t =
  let suffix = List.rev t.pending in
  if not t.arrival_monotone then
    Unknown
      "work budget exhausted and arrival order is not response-ordered; the \
       suffix cannot be soundly recombined"
  else if t.n_pending > max_fallback_txns then
    Unknown
      (Fmt.str
         "work budget exhausted with %d transactions still unchecked (suffix \
          search capped at %d)"
         t.n_pending max_fallback_txns)
  else begin
    let store = prefix_store t in
    let min_inv =
      List.fold_left (fun acc (x : W.txn) -> min acc x.W.inv) max_int suffix
    in
    let init =
      if store = [] then []
      else
        [
          Txn_history.rw ~id:0 ~proc:(-1) ~writes:store ~inv:(min_inv - 2)
            ~resp:(min_inv - 1) ();
        ]
    in
    let base = List.length init in
    let txns =
      init
      @ List.mapi
          (fun j (x : W.txn) ->
            {
              Txn_history.id = base + j;
              proc = x.W.proc;
              reads = x.W.reads;
              writes = x.W.writes;
              inv = x.W.inv;
              resp = (if x.W.resp = max_int then None else Some x.W.resp);
            })
          suffix
    in
    match Txn_history.make txns with
    | exception Invalid_argument m ->
      Unknown (Fmt.str "suffix fallback: malformed suffix history (%s)" m)
    | h -> (
      match
        Check_txn.check ~max_states:t.fallback_states h (fallback_model t.mode)
      with
      | Check_txn.Sat _ -> Pass
      | Check_txn.Unsat ->
        Unknown
          "suffix fallback: no serialization appending the suffix after the \
           prefix exists (interleavings unexplored)"
      | Check_txn.Unknown -> Unknown "suffix fallback: search budget exhausted")
  end

let result t =
  match t.state with
  | Failed m -> Fail m
  | Checking -> (
    match settle_deferred t with
    | `Fail m | `Missing m -> Fail m
    | `Ok -> (
      match finish_scans t with Ok () -> Pass | Error m -> Fail m))
  | Overflowed -> (
    (* The inserted prefix is still held to the exact scans; only the
       buffered suffix needs the bounded search. *)
    match settle_deferred t with
    | `Fail m -> Fail m
    | `Missing m ->
      Unknown (m ^ " (its writer may be in the unchecked suffix)")
    | `Ok -> (
      match finish_scans t with Error m -> Fail m | Ok () -> check_suffix t))

let check ?work_budget ?fallback_states ~mode txns =
  let t = create ?work_budget ?fallback_states ~mode () in
  Array.iter (fun x -> add t x) txns;
  result t
