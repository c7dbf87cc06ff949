(* The two WAN workloads: one long run of a paper experiment each, driven
   through [Harness.spanner_wan] / [Harness.gryff_wan] with checking on. *)

type spec = {
  run :
    check:Harness.check_mode -> trace:Obs.Trace.t -> duration_s:float -> Harness.Run.t;
  duration_s : float;
  check : Harness.check_mode;  (** how users run it; [`Offline] or [`Online] *)
  read : string;  (** the latency recorder counted as reads *)
  write : string;
  sampler : unit -> unit;  (** one workload-generator draw at the run's parameters *)
  protocol_layers : Harness.Run.t -> Obs.Trace.t -> Layer.t;
}

let env check trace = Harness.Env.(default |> with_check check |> with_trace trace)

let share a b = Measure.ratio (float_of_int a) (float_of_int b)

(* Paper Fig. 5b at full length: Spanner-RSS over wan3, Retwis at Zipf
   0.75 over 10M keys, partly-open sessions at 40/s, offline check. *)
let spanner ~seed =
  let theta = 0.75 and n_keys = 10_000_000 in
  let retwis = Workload.Retwis.create ~rng:(Sim.Rng.make seed) ~n_keys ~theta in
  {
    run =
      (fun ~check ~trace ~duration_s ->
        Harness.spanner_wan ~env:(env check trace) ~mode:Spanner.Config.Rss
          ~theta ~n_keys ~arrival_rate_per_sec:40.0 ~duration_s ~seed ());
    duration_s = 300.0;
    check = `Offline;
    read = "ro";
    write = "rw";
    sampler = (fun () -> ignore (Workload.Retwis.sample retwis));
    protocol_layers =
      (fun r sink ->
        let c = Harness.Run.counter r in
        let committed = c "rw.committed" and ro = c "ro.count" in
        let _, blocked_us = Layer.span_stats sink "ro.block" in
        [
          ( "spanner.rw_attempts_per_commit",
            share (committed + c "rw.aborted_attempts") committed );
          ("spanner.ro_slow_share", share (c "ro.slow") ro);
          ("spanner.ro_block_sim_ms", share blocked_us ro /. 1e3);
        ]);
  }

(* The Fig. 7 tail shape: Gryff-RSC over wan5, YCSB with 30% writes and
   10% conflicts, 128 closed-loop clients, online per-key check. Over
   1,000 keys rather than the Fig. 7 benches' 100,000: the online
   checker's per-key state then needs about 0.2 GB of heap instead of
   2.3 GB, and the simulated latencies are the same. *)
let gryff ~seed =
  let n_keys = 1_000 and write_ratio = 0.3 and conflict = 0.1 in
  let ycsb =
    Workload.Ycsb.create ~rng:(Sim.Rng.make seed) ~n_keys ~write_ratio ~conflict
  in
  {
    run =
      (fun ~check ~trace ~duration_s ->
        Harness.gryff_wan ~n_clients:128 ~env:(env check trace)
          ~mode:Gryff.Config.Rsc ~conflict ~write_ratio ~n_keys ~duration_s
          ~seed ());
    duration_s = 240.0;
    check = `Online;
    read = "read";
    write = "write";
    sampler = (fun () -> ignore (Workload.Ycsb.sample ycsb));
    protocol_layers =
      (fun r _ ->
        let c = Harness.Run.counter r in
        let reads = c "read.count" in
        [
          ("gryff.read_second_round_share", share (c "read.second_round") reads);
          ("gryff.deps_per_read", share (c "read.deps_created") reads);
        ]);
  }

(* Every operation in the history, and those never acknowledged. *)
let history_size (r : Harness.Run.t) =
  let resp =
    match r.Harness.Run.records with
    | Harness.Run.Spanner_txns a ->
      Array.map (fun (t : Rss_core.Witness.txn) -> t.Rss_core.Witness.resp) a
    | Harness.Run.Gryff_ops a ->
      Array.map (fun (g : Gryff.Cluster.record) -> g.Gryff.Cluster.g_resp) a
  in
  (Array.length resp, Array.fold_left (fun n t -> if t = max_int then n + 1 else n) 0 resp)

let to_rep spec (r : Harness.Run.t) cost peak_heap_mb =
  let attempted, failed = history_size r in
  {
    Rep.cost;
    units = [| cost |];
    peak_heap_mb;
    capped_cpu = 0.0;
    ops = attempted - failed;
    attempted;
    failed;
    hung = 0;
    msgs = Harness.Run.counter r "net.messages";
    sim_us = r.Harness.Run.duration_us;
    reads = Harness.Run.latency r spec.read;
    writes = Harness.Run.latency r spec.write;
    failures = [];
    problems =
      (match r.Harness.Run.check with
      | Harness.Run.Pass -> []
      | Harness.Run.Fail m -> [ "verdict Fail: " ^ m ]
      | Harness.Run.Unknown m -> [ "verdict Unknown: " ^ m ]);
  }

let run_once ?check ?(trace = Obs.Trace.disabled) spec =
  let check = Option.value check ~default:spec.check in
  Gc.compact ();
  let r, cost =
    Measure.timed (fun () -> spec.run ~check ~trace ~duration_s:spec.duration_s)
  in
  (r, to_rep spec r cost (Measure.top_heap_mb ()))

let rep spec () = snd (run_once spec)

(* Set-up: a zero-duration call of the same driver builds the cluster and
   returns before the first simulated event. *)
let setup spec () =
  (snd
     (Measure.timed (fun () ->
          ignore
            (spec.run ~check:spec.check ~trace:Obs.Trace.disabled ~duration_s:0.0))))
    .Measure.wall

(* The traced run. A warm-up run, then two rounds of: the untraced run,
   the same run with a span sink installed and, for the online checker, a
   [`No_check] run — interleaved so that slow drifts of the host hit each
   kind alike; each kind's median is used. The offline checker's cost is a
   timed [Witness.check] of the history, the workload generator's a timed
   batch of draws. *)
let traced spec host =
  let span name f = Measure.span host name f in
  let run name ?check ?trace () = span name (fun () -> run_once ?check ?trace spec) in
  let base, warm = run "harness.run" () in
  let untraced = ref [] and traced = ref [] and no_check = ref [] in
  let sink = ref Obs.Trace.disabled in
  for _ = 1 to 2 do
    untraced := snd (run "harness.run" ()) :: !untraced;
    sink := Obs.Trace.create ();
    traced := snd (run "harness.run.traced" ~trace:!sink ()) :: !traced;
    if spec.check = `Online then
      no_check := snd (run "harness.run.no_check" ~check:`No_check ()) :: !no_check
  done;
  let sink = !sink in
  let problems =
    if
      List.for_all
        (fun t -> Rep.fingerprint ~words:false t = Rep.fingerprint ~words:false warm)
        !traced
    then []
    else [ "tracing changed the simulated run" ]
  in
  let median_cpu reps = Measure.median (List.map (fun r -> r.Rep.cost.Measure.cpu) reps) in
  let ops = float_of_int warm.Rep.ops and cpu = median_cpu !untraced in
  let counter = Harness.Run.counter base in
  let check_cpu, check_words, check_work =
    match !no_check with
    | nc :: _ ->
      ( cpu -. median_cpu !no_check,
        warm.Rep.cost.Measure.words -. nc.Rep.cost.Measure.words,
        float_of_int (counter "check.work") )
    | [] ->
      let txns =
        match base.Harness.Run.records with
        | Harness.Run.Spanner_txns a -> a
        | Harness.Run.Gryff_ops _ -> [||]
      in
      let _, c =
        span "core.witness_check" (fun () ->
            Measure.timed (fun () -> Rss_core.Witness.check ~mode:`Rss txns))
      in
      (* Witness.check keeps no work counter: count the key accesses it
         verifies. *)
      let accesses =
        Array.fold_left
          (fun n (t : Rss_core.Witness.txn) ->
            n + List.length t.Rss_core.Witness.reads + List.length t.Rss_core.Witness.writes)
          0 txns
      in
      (c.Measure.cpu, c.Measure.words, float_of_int accesses)
  in
  let ns = span "workload.sample" (fun () -> Measure.ns_per_call spec.sampler) in
  let layers =
    [
      ("sim.net.msgs_per_op", float_of_int warm.Rep.msgs /. ops);
      ("sim.net.bytes_per_op", float_of_int (counter "net.bytes") /. ops);
      ("sim.net.hop_share_sim", Layer.hop_share sink);
      ("core.check_cpu_share", check_cpu /. cpu);
      ("core.check_work_per_op", check_work /. ops);
      ("core.check_alloc_words_per_op", check_words /. ops);
      ("workload.sample_ns", ns);
      ("workload.cpu_share", ns *. 1e-9 *. float_of_int warm.Rep.attempted /. cpu);
      ("obs.trace_overhead", (median_cpu !traced -. cpu) /. cpu);
      ("obs.spans_per_op", float_of_int (Obs.Trace.n_spans sink) /. ops);
    ]
    @ spec.protocol_layers base sink
  in
  (warm :: List.rev !untraced, layers, problems, sink)
