(* The repo's benchmark. One workload per invocation:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics: set-up is sampled,
   then the workload is repeated until S seconds have passed and the
   medians are reported. With --trace 1 it makes the traced run and
   reports the per-layer metrics. Either way it checks the outputs, prints
   a human-readable report, writes the full report (and, traced, the
   spans) under perfbench/out/, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. --workload all runs
   every workload both ways. It exits 1 when a check fails and 2 on bad
   usage. *)

type workload = {
  name : string;
  setup : unit -> float;  (** one set-up sample, seconds *)
  setup_samples : int;  (** at least this many *)
  of_trials : bool;  (** attempted/failed count trials, not operations *)
  rep : unit -> Rep.t;
  traced : Measure.host -> Rep.t list * Layer.t * string list * Obs.Trace.t;
}

let workloads ~seed =
  let wan name spec =
    {
      name;
      setup = Wan.setup spec;
      setup_samples = 101;
      of_trials = false;
      rep = Wan.rep spec;
      traced = Wan.traced spec;
    }
  in
  [
    wan "spanner-wan-retwis" (Wan.spanner ~seed);
    wan "gryff-wan-ycsb" (Wan.gryff ~seed);
    {
      name = "chaos-trials";
      setup = Trials.setup ~seed;
      setup_samples = 7;
      of_trials = true;
      rep = Trials.rep ~seed;
      traced = Trials.traced ~seed;
    };
  ]

(* Metric names and units; BENCHMARK.json must list exactly these. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_cpu_s", "ops/s");
    ("ops_per_wall_s", "ops/s");
    ("alloc_words_per_op", "words/op");
    ("peak_heap_mb", "MB");
    ("read_p50_sim_ms", "ms");
    ("read_p999_sim_ms", "ms");
    ("write_p50_sim_ms", "ms");
    ("sim_goodput_ops_per_sim_s", "ops/s");
  ]

let per_layer =
  [
    ("sim.events_per_op", "events/op");
    ("sim.engine.in_event_cpu_share", "share");
    ("sim.engine.net_deliver_cpu_share", "share");
    ("sim.engine.queue_depth_p99", "events");
    ("sim.net.msgs_per_op", "msgs/op");
    ("sim.net.bytes_per_op", "bytes/op");
    ("sim.net.hop_share_sim", "share");
    ("core.check_cpu_share", "share");
    ("core.check_work_per_op", "units/op");
    ("core.check_alloc_words_per_op", "words/op");
    ("spanner.rw_attempts_per_commit", "attempts/commit");
    ("spanner.ro_slow_share", "share");
    ("spanner.ro_block_sim_ms", "ms");
    ("gryff.read_second_round_share", "share");
    ("gryff.deps_per_read", "deps/read");
    ("workload.sample_ns", "ns");
    ("workload.cpu_share", "share");
    ("explore.trial_setup_ms_p50", "ms");
    ("explore.trial_cpu_ms_p50", "ms");
    ("explore.trial_cpu_ms_p99", "ms");
    ("core.rejudge_cpu_share", "share");
    ("chaos.timed_out_share", "share");
    ("replication.view_changes_per_trial", "count/trial");
    ("obs.trace_overhead", "share");
    ("obs.spans_per_op", "spans/op");
  ]

let die code fmt = Fmt.kstr (fun m -> prerr_endline ("perfbench: " ^ m); exit code) fmt

(* The names and units in BENCHMARK.json, section by section. *)
let check_definition () =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error m -> die 2 "cannot read BENCHMARK.json: %s" m
  in
  let doc =
    match Obs.Json.parse text with
    | Ok d -> d
    | Error m -> die 2 "BENCHMARK.json: %s" m
  in
  let section key =
    match Option.bind (Obs.Json.member key doc) Obs.Json.to_arr with
    | None -> die 2 "BENCHMARK.json: no %s list" key
    | Some l ->
      List.map
        (fun m ->
          let field f = Option.bind (Obs.Json.member f m) Obs.Json.to_str in
          (Option.value ~default:"" (field "name"), Option.value ~default:"" (field "unit")))
        l
  in
  if section "end_to_end" <> end_to_end then
    die 2 "BENCHMARK.json end_to_end differs from the metrics this program reports";
  if section "per_layer" <> per_layer then
    die 2 "BENCHMARK.json per_layer differs from the metrics this program reports"

(* {1 Measuring} *)

let setup_seconds = 1.0

(* Repeat [f] until [seconds] have passed, at least [min] times. *)
let repeat ~min ~seconds f =
  let acc = ref [] and n = ref 0 in
  let t0 = Measure.wall_s () in
  while !n < min || Measure.wall_s () -. t0 < seconds do
    acc := f () :: !acc;
    incr n
  done;
  List.rev !acc

(* Set-up samples for [setup_seconds] (a few ms of them would all fall in
   the process's cold start), then the repetitions. *)
let measure w ~seconds =
  let setup = repeat ~min:w.setup_samples ~seconds:setup_seconds w.setup in
  let reps = repeat ~min:2 ~seconds w.rep in
  (setup, reps)

(* A repetition's cost as the sum over its units (trials) of each unit's
   median across repetitions: a burst of host noise slows a few units of
   one repetition and is filtered out. With one unit (or repetitions that
   disagree, which the determinism check reports) it is the median of the
   repetitions' totals. *)
let robust_total reps field =
  let n = Array.length (List.hd reps).Rep.units in
  if n <= 1 || List.exists (fun r -> Array.length r.Rep.units <> n) reps then
    Measure.median (List.map (fun r -> field r.Rep.cost) reps)
  else
    List.fold_left ( +. ) 0.0
      (List.init n (fun i -> Measure.median (List.map (fun r -> field r.Rep.units.(i)) reps)))

let end_to_end_values ~setup reps =
  let r = List.hd reps in
  let n_reps = List.length reps in
  let ops = float_of_int r.Rep.ops in
  let cpu = robust_total reps (fun c -> c.Measure.cpu)
  and wall = robust_total reps (fun c -> c.Measure.wall) in
  let lat rc p = (Measure.pct_ms rc p, Stats.Recorder.count rc) in
  [
    ("setup_s", (Measure.median setup, List.length setup));
    ("ops_per_cpu_s", (ops /. cpu, n_reps));
    ("ops_per_wall_s", (ops /. wall, n_reps));
    ("alloc_words_per_op", (r.Rep.cost.Measure.words /. ops, n_reps));
    (* The first repetition's: OCaml 5.1 keeps the heap it has grown, so
       later repetitions start from a heap their predecessors left. *)
    ("peak_heap_mb", (r.Rep.peak_heap_mb, 1));
    ("read_p50_sim_ms", lat r.Rep.reads 50.0);
    ("read_p999_sim_ms", lat r.Rep.reads 99.9);
    ("write_p50_sim_ms", lat r.Rep.writes 50.0);
    ("sim_goodput_ops_per_sim_s", (ops /. (float_of_int r.Rep.sim_us /. 1e6), n_reps));
  ]

(* Figures printed with the end-to-end metrics but left out of the JSON
   line: the write tail swings with the seed on Spanner (contention
   convoys), [failed_share] is 0 on the WAN workloads, and the others
   exist for the trials workload only. *)
let extra_values w reps =
  let r = List.hd reps in
  let cpu = robust_total reps (fun c -> c.Measure.cpu) in
  ("write_p999_sim_ms", "ms", Measure.pct_ms r.Rep.writes 99.9, Stats.Recorder.count r.Rep.writes)
  :: ( "failed_share",
       "share",
       Measure.ratio (float_of_int r.Rep.failed) (float_of_int r.Rep.attempted),
       r.Rep.attempted )
  ::
  (if w.of_trials then
     [
       ("trials_per_cpu_s", "trials/s", float_of_int (r.Rep.attempted - r.Rep.hung) /. cpu, List.length reps);
       ("capped_cpu_s", "s", r.Rep.capped_cpu, r.Rep.hung);
     ]
   else [])

(* Every repetition must reproduce the first one's exact counts. *)
let determinism reps =
  match reps with
  | [] -> []
  | r :: rest ->
    let f = Rep.fingerprint r in
    List.concat
      (List.mapi
         (fun k r' ->
           let f' = Rep.fingerprint r' in
           if f' = f then []
           else [ Fmt.str "repetition %d differs from the first: %s vs %s" (k + 2) f' f ])
         rest)

(* {1 Reporting} *)

let print_report w ~seed ~trace rows extras reps problems =
  let r = List.hd reps in
  Fmt.pr "perfbench %s  seed=%d  trace=%d  repetitions=%d@." w.name seed trace
    (List.length reps);
  Fmt.pr "  %-36s %18s  %-16s %s@." "metric" "value" "unit" "samples";
  List.iter
    (fun (name, unit, v, n) ->
      match v with
      | Some v -> Fmt.pr "  %-36s %18.6g  %-16s %s@." name v unit n
      | None -> Fmt.pr "  %-36s %18s  %-16s %s@." name "n/a" unit n)
    rows;
  List.iter
    (fun (name, unit, v, n) -> Fmt.pr "  %-36s %18.6g  %-16s %d@." name v unit n)
    extras;
  Fmt.pr "  cpu_s per repetition: %s@."
    (String.concat " " (List.map (fun r -> Fmt.str "%.3f" r.Rep.cost.Measure.cpu) reps));
  Fmt.pr "  ops=%d attempted=%d failed=%d msgs=%d sim_s=%.1f@." r.Rep.ops
    r.Rep.attempted r.Rep.failed r.Rep.msgs
    (float_of_int r.Rep.sim_us /. 1e6);
  if r.Rep.failures <> [] then begin
    Fmt.pr "  failed units (%d):@." (List.length r.Rep.failures);
    List.iter (fun f -> Fmt.pr "    %s@." f) r.Rep.failures
  end;
  List.iter (fun p -> Fmt.pr "  CHECK FAILED: %s@." p) problems

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* One invocation's measurement, report and JSON line; [true] when every
   check passed. *)
let run w ~seed ~seconds ~trace =
  let reps, rows, sink, host =
    if trace = 0 then begin
      let setup, reps = measure w ~seconds in
      let rows =
        List.map
          (fun (name, (v, n)) -> (name, List.assoc name end_to_end, Some v, string_of_int n))
          (end_to_end_values ~setup reps)
      in
      (reps, rows, None, None)
    end
    else begin
      let host = Measure.host () in
      let reps, layers, problems, sink = Measure.span host w.name (fun () -> w.traced host) in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then die 2 "unlisted layer metric %s" name)
        layers;
      let reps =
        match reps with
        | r :: rest -> { r with Rep.problems = r.Rep.problems @ problems } :: rest
        | [] -> die 2 "traced run returned no repetition"
      in
      let rows =
        List.map
          (fun (name, unit) -> (name, unit, List.assoc_opt name layers, "traced"))
          per_layer
      in
      (reps, rows, Some sink, Some host)
    end
  in
  let problems =
    List.concat_map (fun r -> r.Rep.problems) reps @ determinism reps
    |> List.sort_uniq compare
  in
  let extras = if trace = 0 then extra_values w reps else [] in
  print_report w ~seed ~trace rows extras reps problems;
  let r = List.hd reps in
  let correct = problems = [] in
  let value v unit = Obs.Json.Obj [ ("value", Emit.num v); ("unit", Emit.str unit) ] in
  let result =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Emit.int r.Rep.attempted);
        ("failed", Emit.int r.Rep.failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (name, unit, v, _) -> (name, value (Option.value ~default:0.0 v) unit))
               rows) );
      ]
  in
  let out = Filename.concat "perfbench" "out" in
  let stem = Fmt.str "%s-seed%d-trace%d" w.name seed trace in
  mkdir_p out;
  let report =
    Obs.Json.Obj
      [
        ("workload", Emit.str w.name);
        ("seed", Emit.int seed);
        ("trace", Emit.int trace);
        ("result", result);
        ("samples", Obs.Json.Obj (List.map (fun (name, _, _, n) -> (name, Emit.str n)) rows));
        ("extra", Obs.Json.Obj (List.map (fun (name, unit, v, _) -> (name, value v unit)) extras));
        ( "cpu_s_per_repetition",
          Obs.Json.Arr (List.map (fun r -> Emit.num r.Rep.cost.Measure.cpu) reps) );
        ("fingerprint", Emit.str (Rep.fingerprint r));
        ("failures", Obs.Json.Arr (List.map Emit.str r.Rep.failures));
        ("problems", Obs.Json.Arr (List.map Emit.str problems));
      ]
  in
  write_file (Filename.concat out (stem ^ ".json")) (Emit.line report ^ "\n");
  Option.iter
    (fun (h : Measure.host) ->
      Fmt.pr "  host self time (ms):@.";
      List.iter
        (fun (name, us) -> Fmt.pr "    %-34s %10.1f@." name (float_of_int us /. 1e3))
        (Measure.self_us h);
      Obs.Trace.save_chrome h.Measure.sink ~path:(Filename.concat out (stem ^ "-host.json")))
    host;
  Option.iter
    (fun sink -> Obs.Trace.save_binary sink ~path:(Filename.concat out (stem ^ "-sim.obsb")))
    sink;
  print_endline (Emit.line result);
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run, or all");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer run");
    ]
    (fun a -> die 2 "unexpected argument %s" a)
    "perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then die 2 "--trace must be 0 or 1";
  check_definition ();
  let ws = workloads ~seed:!seed in
  if !workload = "all" then begin
    (* One process per run: the peak heap is a per-process high-water
       mark. *)
    let ok =
      List.fold_left
        (fun ok (w, trace) ->
          let args =
            [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed;
              "--seconds"; Fmt.str "%g" !seconds; "--trace"; string_of_int trace ]
          in
          let pid =
            Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
              Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ok
          | _ -> false)
        true
        (List.concat_map (fun w -> [ (w, 0); (w, 1) ]) ws)
    in
    exit (if ok then 0 else 1)
  end;
  match List.find_opt (fun w -> w.name = !workload) ws with
  | Some w -> exit (if run w ~seed:!seed ~seconds:!seconds ~trace:!trace then 0 else 1)
  | None ->
    die 2 "unknown workload %S (one of: %s, all)" !workload
      (String.concat ", " (List.map (fun w -> w.name) ws))
