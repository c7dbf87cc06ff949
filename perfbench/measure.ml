(* Host-side measurement: clocks, allocation counters, the per-trial CPU
   cap, the benchmark's own host-time spans, and the summary statistics
   the report uses. Nothing here touches simulated state. *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall_s () = Unix.gettimeofday ()

type cost = { cpu : float; wall : float; words : float }

let zero_cost = { cpu = 0.0; wall = 0.0; words = 0.0 }

let add_cost a b =
  { cpu = a.cpu +. b.cpu; wall = a.wall +. b.wall; words = a.words +. b.words }

(* Run [f] and charge it its host CPU, wall time and minor-heap words. *)
let timed f =
  let c0 = cpu_s () and w0 = wall_s () and m0 = Gc.minor_words () in
  let v = f () in
  let m1 = Gc.minor_words () and w1 = wall_s () and c1 = cpu_s () in
  (v, { cpu = c1 -. c0; wall = w1 -. w0; words = m1 -. m0 })

(* Host ns per call of [f], over [n] calls. *)
let ns_per_call ?(n = 200_000) f =
  let (), c = timed (fun () -> for _ = 1 to n do f () done) in
  c.cpu *. 1e9 /. float_of_int n

(* {1 Heap} *)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* The major heap now, and its high-water mark since the process began.
   (A GC alarm would see peaks inside a run, but its own allocations would
   make the allocation counts vary from run to run.) *)
let heap_mb () = mb (Gc.quick_stat ()).Gc.heap_words

let top_heap_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* {1 CPU cap}

   A trial that has not returned after [cap_s] seconds of process CPU is
   abandoned: a virtual-time interval timer raises [Capped] from the
   signal handler, which unwinds the simulator. Capped work is reported
   as a failure, never retried, and its cost is kept out of the
   throughput figures. *)

exception Capped

let () = Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> raise Capped))

let arm s =
  ignore
    (Unix.setitimer Unix.ITIMER_VIRTUAL
       { Unix.it_interval = 0.0; it_value = s })

let with_cpu_cap cap_s f =
  arm cap_s;
  try
    let v = Fun.protect ~finally:(fun () -> arm 0.0) f in
    Some v
  with Capped | Fun.Finally_raised Capped -> None

(* {1 Host-time spans}

   The benchmark's own spans around each call into a layer, recorded in
   an [Obs.Trace] sink with host microseconds (since the sink was made)
   as timestamps, so they export through the same Chrome writer as the
   simulator's spans. *)

type host = { sink : Obs.Trace.t; origin : float }

let host () = { sink = Obs.Trace.create (); origin = wall_s () }

(* For untraced runs: spans cost nothing. *)
let no_host = { sink = Obs.Trace.disabled; origin = 0.0 }

let host_us h = int_of_float ((wall_s () -. h.origin) *. 1e6)

let span h name f =
  if not (Obs.Trace.enabled h.sink) then f ()
  else begin
    let s = Obs.Trace.begin_span h.sink ~kind:Obs.Trace.Phase ~name ~ts:(host_us h) in
    Fun.protect
      ~finally:(fun () -> Obs.Trace.end_span h.sink s ~ts:(host_us h))
      (fun () -> Obs.Trace.with_current h.sink s f)
  end

(* Self time per span name: a span's duration minus the part its
   children cover (children never overlap — the benchmark is one
   thread). *)
let self_us h =
  let spans = Obs.Trace.spans h.sink in
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun (i : Obs.Trace.info) -> Hashtbl.replace by_id i.id i) spans;
  let dur (i : Obs.Trace.info) = max 0 (i.end_ts - i.start_ts) in
  let self = Hashtbl.create 16 in
  let bump name d =
    Hashtbl.replace self name
      (d + Option.value ~default:0 (Hashtbl.find_opt self name))
  in
  Array.iter
    (fun (i : Obs.Trace.info) ->
      bump i.name (dur i);
      match Hashtbl.find_opt by_id i.parent with
      | Some p -> bump p.name (-dur i)
      | None -> ())
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

(* {1 Statistics} *)

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Simulated latency in ms at percentile [p] of a µs recorder; 0 when
   empty. *)
let pct_ms r p =
  Option.value ~default:0.0 (Stats.Recorder.percentile_ms_opt r p)
