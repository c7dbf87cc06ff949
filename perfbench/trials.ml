(* The chaos-trials workload: a fixed, seeded list of schedule-explorer
   trials — every protocol × the explorer CLI's default nemesis pool ×
   [seeds_per_cell] seeds — each run with [Explore.Exec.run] under a CPU
   cap. Trials are short, so cluster construction, fault injection,
   failover and the re-judge dominate, not the simulator's hot loop. *)

let presets =
  Chaos.Nemesis.
    [ Partition_heal; Link_loss; Reorder_storm; Leader_kill; Mixed; Asym_block ]

let seeds_per_cell = 50

(* Finished trials take 1-5 ms of CPU; a trial still running after
   [cap_s] has hung. *)
let cap_s = 0.025

let inputs ~seed =
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun preset ->
          List.init seeds_per_cell (fun k ->
              let s = ((seed - 1) * seeds_per_cell) + k + 1 in
              {
                (Explore.Exec.base protocol) with
                Explore.Exec.preset;
                seed = s;
                nemesis_seed = s;
              }))
        presets)
    Chaos.Audit.protocols

(* The [Chaos.Audit.run] call [Explore.Exec.run] makes for [i], with a
   [prepare] hook of our own. *)
let audit ?tracer ~prepare (i : Explore.Exec.input) =
  let duration_s = float_of_int i.duration_ms /. 1_000.0 in
  let schedule =
    Chaos.Audit.nemesis_schedule i.protocol i.preset ~duration_s
      ~seed:i.nemesis_seed
  in
  let n_migrations =
    match i.protocol with
    | (Chaos.Audit.Spanner_strict | Chaos.Audit.Spanner_rss)
      when Chaos.Nemesis.requires_reshard i.preset ->
      2
    | _ -> 0
  in
  Chaos.Audit.run i.protocol ?tracer
    ~prepare:(fun engine net ->
      Explore.Perturb.install i.perturb ~engine ~net;
      prepare engine net)
    ~schedule ~n_slots:i.n_slots ~n_keys:i.n_keys
    ~timeout_us:(i.timeout_ms * 1_000)
    ~conflict:(float_of_int i.conflict_pct /. 100.0)
    ~write_ratio:(float_of_int i.write_pct /. 100.0)
    ~unsafe_no_deps:i.unsafe
    ~failover:(Chaos.Nemesis.requires_failover i.preset)
    ~n_migrations ~duration_s ~seed:i.seed ()

(* What a finished trial leaves behind: its counts, not its history (a
   sweep keeps 1,200 of these). *)
type summary = {
  input : Explore.Exec.input;
  cost : Measure.cost;
  heap_mb : float;
  ops : int;
  timed_out : int;
  msgs : int;
  sim_us : int;
  view_changes : int;
  aborted_attempts : int;
  rw_committed : int;
  checker_work : int;
  digest : string;
  failure : string option;  (** the [Fail] verdict *)
  contradiction : string option;
}

type trial = Finished of summary | Hung of Explore.Exec.input * float  (** CPU burnt *)

let is_spanner = function
  | Chaos.Audit.Spanner_strict | Chaos.Audit.Spanner_rss -> true
  | Chaos.Audit.Gryff_lin | Chaos.Audit.Gryff_rsc -> false

(* Completed-op latencies from the history; the number of committed RW
   transactions (Spanner). *)
let scan_history ~reads ~writes (run : Chaos.Audit.run) =
  let add r ~inv ~resp = if resp <> max_int then Stats.Recorder.add r (resp - inv) in
  match run.Chaos.Audit.records with
  | Chaos.Audit.Spanner_records a ->
    Array.fold_left
      (fun n (t : Rss_core.Witness.txn) ->
        let ro = t.Rss_core.Witness.writes = [] in
        add (if ro then reads else writes) ~inv:t.Rss_core.Witness.inv
          ~resp:t.Rss_core.Witness.resp;
        if ro then n else n + 1)
      0 a
  | Chaos.Audit.Gryff_records a ->
    Array.iter
      (fun (g : Gryff.Cluster.record) ->
        let inv = g.Gryff.Cluster.g_inv and resp = g.Gryff.Cluster.g_resp in
        match g.Gryff.Cluster.g_kind with
        | Gryff.Cluster.Read -> add reads ~inv ~resp
        | Gryff.Cluster.Write -> add writes ~inv ~resp
        | Gryff.Cluster.Rmw -> ())
      a;
    0

(* The oracle (online re-judge) and the audit's own offline check must
   not contradict each other; an [Unknown] on either side is no
   contradiction. *)
let contradiction (o : Explore.Exec.outcome) =
  match (o.Explore.Exec.verdict, o.Explore.Exec.offline_check) with
  | Rss_core.Check_online.Pass, Error m -> Some ("offline check failed: " ^ m)
  | Rss_core.Check_online.Fail m, Ok () -> Some ("online re-judge failed: " ^ m)
  | _ -> None

let run_trial host ~reads ~writes i =
  let o, cost =
    Measure.span host "explore.exec_run" (fun () ->
        Measure.timed (fun () -> Measure.with_cpu_cap cap_s (fun () -> Explore.Exec.run i)))
  in
  (* Every trial starts from a collected heap, outside the measured
     window: the peak heap and the costs then belong to the trial alone,
     whatever ran before it (a hung trial leaves a heap that depends on
     where the cap stopped it). *)
  let heap_mb = Measure.heap_mb () in
  Gc.full_major ();
  match o with
  | None -> Hung (i, cost.Measure.cpu)
  | Some o ->
    let run = o.Explore.Exec.run in
    Finished
      {
        input = i;
        cost;
        heap_mb;
        ops = run.Chaos.Audit.ops_completed;
        timed_out = run.Chaos.Audit.ops_timed_out;
        msgs = run.Chaos.Audit.msgs_sent;
        sim_us = run.Chaos.Audit.duration_us;
        view_changes = run.Chaos.Audit.view_changes;
        aborted_attempts = run.Chaos.Audit.aborted_attempts;
        rw_committed = scan_history ~reads ~writes run;
        checker_work = o.Explore.Exec.checker_work;
        digest = o.Explore.Exec.trace_digest;
        failure =
          (if Explore.Exec.is_fail o.Explore.Exec.verdict then
             Some (Explore.Exec.verdict_string o.Explore.Exec.verdict)
           else None);
        contradiction = contradiction o;
      }

let sweep host inputs =
  let reads = Stats.Recorder.create () and writes = Stats.Recorder.create () in
  Gc.full_major ();
  let trials = List.map (run_trial host ~reads ~writes) inputs in
  let peak = ref 0.0 in
  let cost = ref Measure.zero_cost and capped = ref 0.0 in
  let ops = ref 0 and msgs = ref 0 and sim_us = ref 0 in
  let failed = ref 0 and hung = ref 0 in
  let failures = ref [] and problems = ref [] in
  List.iter
    (function
      | Hung (i, cpu) ->
        incr failed;
        incr hung;
        capped := !capped +. cpu;
        failures :=
          Fmt.str "hung (no verdict after %g s CPU): %s" cap_s
            (Explore.Exec.describe i)
          :: !failures
      | Finished s ->
        peak := Float.max !peak s.heap_mb;
        cost := Measure.add_cost !cost s.cost;
        ops := !ops + s.ops;
        msgs := !msgs + s.msgs;
        sim_us := !sim_us + s.sim_us;
        Option.iter
          (fun v ->
            incr failed;
            failures := Fmt.str "%s: %s" v (Explore.Exec.describe s.input) :: !failures)
          s.failure;
        Option.iter
          (fun m -> problems := (Explore.Exec.describe s.input ^ ": " ^ m) :: !problems)
          s.contradiction)
    trials;
  ( trials,
    {
      Rep.cost = !cost;
      units =
        Array.of_list (List.filter_map (function Finished s -> Some s.cost | Hung _ -> None) trials);
      peak_heap_mb = !peak;
      capped_cpu = !capped;
      ops = !ops;
      attempted = List.length trials;
      failed = !failed;
      hung = !hung;
      msgs = !msgs;
      sim_us = !sim_us;
      reads;
      writes;
      failures = List.rev !failures;
      problems = List.rev !problems;
    } )

let rep ~seed () = snd (sweep Measure.no_host (inputs ~seed))

(* Set-up: summed over trials, from the call into [Chaos.Audit.run] to its
   [prepare] hook — the cluster is built, nothing is scheduled yet. The
   trial is abandoned there. *)
exception Built

let trial_setup_s i =
  let t0 = Measure.wall_s () in
  let t = ref nan in
  (try
     ignore
       (audit i ~prepare:(fun _ _ ->
            t := Measure.wall_s () -. t0;
            raise Built))
   with Built -> ());
  !t

let setup ~seed () = List.fold_left (fun acc i -> acc +. trial_setup_s i) 0.0 (inputs ~seed)

(* {1 The traced run}

   After the sweep that tells finished trials from hung ones, every
   finished trial runs four more times, back to back so that slow drifts
   of the host hit each variant alike: [Explore.Exec.run] again, and
   [Chaos.Audit.run] untraced (set-up time, and the audit's cost without
   the explorer's re-judge), with engine profiling (events, per-kind host
   time, queue depth, bytes) and with a span sink (simulated spans,
   tracing overhead). *)

type variants = {
  exec : Measure.cost;
  audit : Measure.cost;
  setup_s : float;
  digest : string;
  profiled : Measure.cost;
  events : int;
  in_event_s : float;
  deliver_s : float;
  bytes : int;
  depths : Stats.Recorder.t;
  traced : Measure.cost;
}

let variants host sink i =
  let span name f = Measure.span host name (fun () -> Measure.timed f) in
  let _, exec = span "explore.exec_run" (fun () -> Explore.Exec.run i) in
  let t0 = Measure.wall_s () in
  let setup_s = ref nan in
  let run, audit_cost =
    span "chaos.audit_run" (fun () ->
        audit i ~prepare:(fun _ _ -> setup_s := Measure.wall_s () -. t0))
  in
  let handles = ref None in
  let _, profiled =
    span "chaos.audit_run.profiled" (fun () ->
        audit i ~prepare:(fun e n ->
            Sim.Engine.enable_profiling ~sample_queue_every:64 e;
            handles := Some (e, n)))
  in
  let e, n = Option.get !handles in
  let prof = Sim.Engine.profile e in
  let _, traced =
    span "chaos.audit_run.traced" (fun () -> audit ~tracer:sink ~prepare:(fun _ _ -> ()) i)
  in
  {
    exec;
    audit = audit_cost;
    setup_s = !setup_s;
    digest = Digest.to_hex (Digest.string run.Chaos.Audit.trace);
    profiled;
    events = Sim.Engine.executed e;
    in_event_s = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 prof;
    deliver_s =
      List.fold_left (fun acc (k, _, s) -> if k = "net.deliver" then acc +. s else acc) 0.0 prof;
    bytes = Sim.Net.bytes_sent n;
    depths = Sim.Engine.queue_depths e;
    traced;
  }

(* Generator cost per op at the two base shapes' parameters. *)
let sampler_ns host =
  Measure.span host "workload.sample" (fun () ->
      let b = Explore.Exec.base Chaos.Audit.Gryff_rsc in
      let retwis =
        Workload.Retwis.create ~rng:(Sim.Rng.make 1)
          ~n_keys:(Explore.Exec.base Chaos.Audit.Spanner_rss).Explore.Exec.n_keys
          ~theta:0.5
      in
      let ycsb =
        Workload.Ycsb.create ~rng:(Sim.Rng.make 1) ~n_keys:b.Explore.Exec.n_keys
          ~write_ratio:(float_of_int b.Explore.Exec.write_pct /. 100.0)
          ~conflict:(float_of_int b.Explore.Exec.conflict_pct /. 100.0)
      in
      ( Measure.ns_per_call (fun () -> ignore (Workload.Retwis.sample retwis)),
        Measure.ns_per_call (fun () -> ignore (Workload.Ycsb.sample ycsb)) ))

let pct l p =
  let r = Stats.Recorder.create () in
  List.iter (fun x -> Stats.Recorder.add r (int_of_float (x *. 1e6))) l;
  Stats.Recorder.percentile r p /. 1e3

let traced ~seed host =
  let span name f = Measure.span host name f in
  let trials, u = span "explore.sweep" (fun () -> sweep host (inputs ~seed)) in
  let finished = List.filter_map (function Finished s -> Some s | Hung _ -> None) trials in
  let sink = Obs.Trace.create () in
  let vs =
    span "variants.sweep" (fun () ->
        Gc.compact ();
        List.map (fun s -> variants host sink s.input) finished)
  in
  let ns_retwis, ns_ycsb = sampler_ns host in
  let problems =
    List.concat
      (List.map2
         (fun (s : summary) (v : variants) ->
           if v.digest = s.digest then []
           else [ "audit history differs from the explorer's: " ^ Explore.Exec.describe s.input ])
         finished vs)
  in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let exec_cpu = sum (fun v -> v.exec.Measure.cpu) vs in
  let exec_words = sum (fun v -> v.exec.Measure.words) vs in
  let audit_cpu = sum (fun v -> v.audit.Measure.cpu) vs in
  let audit_words = sum (fun v -> v.audit.Measure.words) vs in
  let prof_cpu = sum (fun v -> v.profiled.Measure.cpu) vs in
  let ops = float_of_int u.Rep.ops in
  let per_op x = x /. ops in
  let rejudge = (exec_cpu -. audit_cpu) /. exec_cpu in
  let attempted_ops spanner =
    sumi
      (fun s -> if is_spanner s.input.Explore.Exec.protocol = spanner then s.ops + s.timed_out else 0)
      finished
  in
  let sample_s =
    ((ns_retwis *. float_of_int (attempted_ops true))
    +. (ns_ycsb *. float_of_int (attempted_ops false)))
    *. 1e-9
  in
  let rw_committed = sumi (fun s -> s.rw_committed) finished in
  let n_ro, _ = Layer.span_stats sink "spanner.ro" in
  let _, blocked_us = Layer.span_stats sink "ro.block" in
  let n_read, _ = Layer.span_stats sink "gryff.read" in
  let n_round2, _ = Layer.span_stats sink "gryff.read.round2" in
  let depths =
    List.fold_left (fun acc v -> Stats.Recorder.merge acc v.depths) (Stats.Recorder.create ()) vs
  in
  let timed_out = sumi (fun s -> s.timed_out) finished in
  let trial_cpu = List.map (fun s -> s.cost.Measure.cpu) finished in
  let layers =
    [
      ("sim.events_per_op", per_op (float_of_int (sumi (fun v -> v.events) vs)));
      ("sim.engine.in_event_cpu_share", sum (fun v -> v.in_event_s) vs /. prof_cpu);
      ("sim.engine.net_deliver_cpu_share", sum (fun v -> v.deliver_s) vs /. prof_cpu);
      ("sim.engine.queue_depth_p99",
        Option.value ~default:0.0 (Stats.Recorder.percentile_opt depths 99.0));
      ("sim.net.msgs_per_op", per_op (float_of_int u.Rep.msgs));
      ("sim.net.bytes_per_op", per_op (float_of_int (sumi (fun v -> v.bytes) vs)));
      ("sim.net.hop_share_sim", Layer.hop_share sink);
      ("core.check_cpu_share", rejudge);
      ("core.check_work_per_op",
        per_op (float_of_int (sumi (fun s -> s.checker_work) finished)));
      ("core.check_alloc_words_per_op", per_op (exec_words -. audit_words));
      ("spanner.rw_attempts_per_commit",
        Measure.ratio
          (float_of_int (rw_committed + sumi (fun s -> s.aborted_attempts) finished))
          (float_of_int rw_committed));
      ("spanner.ro_block_sim_ms", Measure.ratio (float_of_int blocked_us) (float_of_int n_ro) /. 1e3);
      ("gryff.read_second_round_share", Measure.ratio (float_of_int n_round2) (float_of_int n_read));
      ("workload.sample_ns", sample_s *. 1e9 /. float_of_int (attempted_ops true + attempted_ops false));
      ("workload.cpu_share", sample_s /. exec_cpu);
      ("explore.trial_setup_ms_p50", Measure.median (List.map (fun v -> v.setup_s) vs) *. 1e3);
      ("explore.trial_cpu_ms_p50", pct trial_cpu 50.0);
      ("explore.trial_cpu_ms_p99", pct trial_cpu 99.0);
      ("core.rejudge_cpu_share", rejudge);
      ("chaos.timed_out_share",
        Measure.ratio (float_of_int timed_out) (float_of_int (u.Rep.ops + timed_out)));
      ("replication.view_changes_per_trial",
        Measure.ratio (float_of_int (sumi (fun s -> s.view_changes) finished))
          (float_of_int (List.length finished)));
      ("obs.trace_overhead", (sum (fun v -> v.traced.Measure.cpu) vs -. audit_cpu) /. audit_cpu);
      ("obs.spans_per_op", per_op (float_of_int (Obs.Trace.n_spans sink)));
    ]
  in
  ([ u ], layers, problems, sink)
