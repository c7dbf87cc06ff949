type key = string
type value = int

type txn = {
  proc : int;
  reads : (key * value option) list;
  writes : (key * value) list;
  inv : int;
  resp : int;
  ts : int;
  rank : int;
}

type mode = [ `Strict | `Rss | `Sequential ]

let mutator_rank ~writes = if writes = [] then 1 else 0

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Per-key tables: string-specialised hashing, sized once from the history
   so a long run does not rehash its way up from the floor. The distinct
   keys number at most the key accesses, and a table holds two keys per
   bucket before it resizes. *)
module Keys = Hashtbl.Make (String)

let key_table txns =
  let accesses =
    Array.fold_left (fun n x -> n + List.length x.reads + List.length x.writes) 0 txns
  in
  Keys.create (max 1024 (accesses / 2))

(* Positions of txns sorted by (ts, rank, inv, index). *)
let order txns =
  let n = Array.length txns in
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let ta = txns.(a) and tb = txns.(b) in
      let c = compare ta.ts tb.ts in
      if c <> 0 then c
      else
        let c = compare ta.rank tb.rank in
        if c <> 0 then c
        else
          let c = compare ta.inv tb.inv in
          if c <> 0 then c else compare a b)
    idx;
  let pos = Array.make n 0 in
  Array.iteri (fun p i -> pos.(i) <- p) idx;
  (idx, pos)

let check_legal txns idx =
  let store : value Keys.t = key_table txns in
  let exception Violation of string in
  try
    Array.iter
      (fun i ->
        let x = txns.(i) in
        if x.resp <> max_int then
          List.iter
            (fun (k, v) ->
              let cur = Keys.find_opt store k in
              if not (Option.equal Int.equal cur v) then
                raise
                  (Violation
                     (Fmt.str
                        "legality: txn %d read %s=%s but order implies %s (ts=%d)"
                        i k
                        (match v with None -> "nil" | Some v -> string_of_int v)
                        (match cur with None -> "nil" | Some v -> string_of_int v)
                        x.ts)))
            x.reads;
        List.iter (fun (k, v) -> Keys.replace store k v) x.writes)
      idx;
    Ok ()
  with Violation m -> Error m

let check_sessions txns pos =
  let by_proc = Hashtbl.create 64 in
  let exception Violation of string in
  try
    Array.iteri
      (fun i x ->
        let prev = try Hashtbl.find by_proc x.proc with Not_found -> [] in
        Hashtbl.replace by_proc x.proc ((x.inv, i) :: prev))
      txns;
    Hashtbl.iter
      (fun proc ops ->
        let ops = List.sort compare ops in
        let rec walk = function
          | (_, a) :: ((_, b) :: _ as rest) ->
            if pos.(a) > pos.(b) then
              raise
                (Violation
                   (Fmt.str "session order: process %d's txns %d and %d inverted"
                      proc a b));
            walk rest
          | [ _ ] | [] -> ()
        in
        walk ops)
      by_proc;
    Ok ()
  with Violation m -> Error m

(* Regular real-time constraint among mutators: scanning the order, every
   completed mutator's response must not precede the invocation of any
   earlier-positioned mutator. *)
let check_rt_mutators txns idx =
  let exception Violation of string in
  try
    let max_inv = ref min_int in
    Array.iter
      (fun i ->
        let x = txns.(i) in
        if x.writes <> [] then begin
          if x.resp < !max_inv then
            raise
              (Violation
                 (Fmt.str
                    "real-time: mutator %d (resp=%d) serialized after a mutator invoked at %d"
                    i x.resp !max_inv));
          if x.inv > !max_inv then max_inv := x.inv
        end)
      idx;
    Ok ()
  with Violation m -> Error m

(* Regular real-time constraint between writers of a key and its readers. *)
let check_rt_conflicts txns idx =
  let exception Violation of string in
  (* max invocation among readers of each key, seen so far in order *)
  let max_reader_inv : int Keys.t = key_table txns in
  try
    Array.iter
      (fun i ->
        let x = txns.(i) in
        List.iter
          (fun (k, _) ->
            match Keys.find_opt max_reader_inv k with
            | Some m when x.resp < m ->
              raise
                (Violation
                   (Fmt.str
                      "real-time: writer %d of %s (resp=%d) serialized after a reader invoked at %d"
                      i k x.resp m))
            | Some _ | None -> ())
          x.writes;
        List.iter
          (fun (k, _) ->
            match Keys.find_opt max_reader_inv k with
            | Some m when m >= x.inv -> ()
            | Some _ | None -> Keys.replace max_reader_inv k x.inv)
          x.reads)
      idx;
    Ok ()
  with Violation m -> Error m

(* Full real-time order: no txn may be serialized after one it entirely
   precedes in real time. *)
let check_rt_all txns idx =
  let exception Violation of string in
  try
    let max_inv = ref min_int in
    Array.iter
      (fun i ->
        let x = txns.(i) in
        if x.resp < !max_inv then
          raise
            (Violation
               (Fmt.str
                  "real-time: txn %d (resp=%d) serialized after a txn invoked at %d"
                  i x.resp !max_inv));
        if x.inv > !max_inv then max_inv := x.inv)
      idx;
    Ok ()
  with Violation m -> Error m

let check_edges pos edges =
  let rec walk = function
    | [] -> Ok ()
    | (a, b) :: rest ->
      if pos.(a) >= pos.(b) then
        Error (Fmt.str "causal edge: txn %d must be serialized before %d" a b)
      else walk rest
  in
  walk edges

let check ?(edges = []) ~mode txns =
  let idx, pos = order txns in
  let* () = check_legal txns idx in
  let* () = check_sessions txns pos in
  let* () = check_edges pos edges in
  match mode with
  | `Sequential -> Ok ()
  | `Rss ->
    let* () = check_rt_mutators txns idx in
    check_rt_conflicts txns idx
  | `Strict -> check_rt_all txns idx
