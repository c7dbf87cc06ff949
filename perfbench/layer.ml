(* Per-layer metrics. A workload reports the layers it can reach from
   outside the program; the report prints "n/a" (and 0 in the JSON line)
   for the rest. *)

type t = (string * float) list

(* Share of simulated time in [Client_op] spans covered by the [Net_hop]
   spans descending from them: per op, the union of its hops' intervals
   clipped to the op's own (a fan-out puts hops in flight in parallel, and
   late replies land after the op has returned). *)
let hop_share (sink : Obs.Trace.t) =
  let spans = Obs.Trace.spans sink in
  let n = Array.length spans in
  let idx = Array.make (n + 1) (-1) in
  Array.iteri (fun k (i : Obs.Trace.info) -> if i.id <= n then idx.(i.id) <- k) spans;
  (* root.(id): the id of the Client_op span at or above [id], or 0.
     Causal chains can be long, so walk them with a loop, then memoize
     the answer along the path. *)
  let root = Array.make (n + 1) (-1) in
  let find id =
    let path = ref [] and cur = ref id and r = ref (-1) in
    while !r < 0 do
      let c = !cur in
      if c <= 0 || c > n || idx.(c) < 0 then r := 0
      else if root.(c) >= 0 then r := root.(c)
      else begin
        path := c :: !path;
        let i = spans.(idx.(c)) in
        if i.kind = Obs.Trace.Client_op then r := c else cur := i.parent
      end
    done;
    List.iter (fun c -> root.(c) <- !r) !path;
    !r
  in
  let closed (i : Obs.Trace.info) = i.end_ts >= i.start_ts in
  let hops = Hashtbl.create 1024 in
  let op_time = ref 0 in
  Array.iter
    (fun (i : Obs.Trace.info) ->
      if closed i then
        match i.kind with
        | Obs.Trace.Client_op -> op_time := !op_time + (i.end_ts - i.start_ts)
        | Obs.Trace.Net_hop ->
          let r = find i.parent in
          if r > 0 then
            Hashtbl.replace hops r
              ((i.start_ts, i.end_ts) :: Option.value ~default:[] (Hashtbl.find_opt hops r))
        | _ -> ())
    spans;
  let covered = ref 0 in
  Hashtbl.iter
    (fun r ivs ->
      let op = spans.(idx.(r)) in
      if closed op then begin
        let _, acc =
          List.fold_left
            (fun (hi, acc) (s, e) ->
              let s = max s (max hi op.start_ts) and e = min e op.end_ts in
              if e <= s then (hi, acc) else (e, acc + (e - s)))
            (op.start_ts, 0) (List.sort compare ivs)
        in
        covered := !covered + acc
      end)
    hops;
  Measure.ratio (float_of_int !covered) (float_of_int !op_time)

(* Count and total simulated µs of the spans called [name]. *)
let span_stats (sink : Obs.Trace.t) name =
  let n = ref 0 and total = ref 0 in
  Obs.Trace.iter sink (fun i ->
      if i.Obs.Trace.name = name then begin
        incr n;
        if i.Obs.Trace.end_ts >= i.Obs.Trace.start_ts then
          total := !total + (i.Obs.Trace.end_ts - i.Obs.Trace.start_ts)
      end);
  (!n, !total)
