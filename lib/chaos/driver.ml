(* One driver per protocol. Every experiment and every chaos audit is the
   same job: build the cluster, arm the environment's faults, drive a load,
   sweep writes whose acknowledgement a fault swallowed into the history,
   and check the history against the protocol's model. [spanner] and
   [gryff] each do that job once; the Harness presets and [Audit.run] only
   pick the deployment, the load and the environment. *)

type check_mode = [ `Offline | `Online | `No_check ]

type reshard_spec = {
  rs_at : float;
  rs_lo : int;
  rs_hi : int;
  rs_dst : int;
  rs_no_fence : bool;
}

type flow_spec = {
  fl_admission : Sim.Station.limits option;
  fl_drop_expired : bool;
  fl_hedge_us : int;
  fl_budget : (int * int) option;
  fl_gryff_fanout : Gryff.Protocol.read_fanout option;
}

let flow_default =
  {
    fl_admission = None;
    fl_drop_expired = false;
    fl_hedge_us = 0;
    fl_budget = None;
    fl_gryff_fanout = None;
  }

type disk_faults = {
  df_spec : Sim.Durable.Faults.spec;
  df_seed : int;
  df_scrub_period_us : int;
  df_integrity : bool;
}

let default_disk_faults ?spec ~seed () =
  {
    df_spec =
      (match spec with Some s -> s | None -> Sim.Durable.Faults.default_spec);
    df_seed = seed;
    df_scrub_period_us = 250_000;
    df_integrity = true;
  }

module Env = struct
  type t = {
    chaos : Schedule.t option;
    disk_faults : disk_faults option;
    failover : bool;
    trace : Obs.Trace.t;
    check : check_mode;
    batching : Sim.Net.policy option;
    deadline_us : int option;
    flow : flow_spec option;
  }

  let default =
    {
      chaos = None;
      disk_faults = None;
      failover = false;
      trace = Obs.Trace.disabled;
      check = `Offline;
      batching = None;
      deadline_us = None;
      flow = None;
    }

  let with_chaos s t = { t with chaos = Some s }
  let with_disk_faults d t = { t with disk_faults = Some d }
  let with_failover b t = { t with failover = b }
  let with_trace tr t = { t with trace = tr }
  let with_check c t = { t with check = c }
  let with_batching p t = { t with batching = p }

  let with_deadline_us d t =
    (match d with
    | Some d when d <= 0 ->
      invalid_arg "Harness.Env.with_deadline_us: deadline must be positive"
    | _ -> ());
    { t with deadline_us = d }

  let with_flow f t = { t with flow = f }
end

module Run = struct
  type history =
    | Spanner_txns of Rss_core.Witness.txn array
    | Gryff_ops of Gryff.Cluster.record array

  type verdict = Rss_core.Check_online.verdict =
    | Pass
    | Fail of string
    | Unknown of string

  type t = {
    latencies : (string * Stats.Recorder.t) list;
    metrics : Obs.Metrics.snapshot;
    check : verdict;
    records : history;
    duration_us : int;
  }

  let passed t = match t.check with Pass -> true | Fail _ | Unknown _ -> false

  let empty_recorder = Stats.Recorder.create ()

  let latency t name =
    match List.assoc_opt name t.latencies with
    | Some r -> r
    | None -> empty_recorder

  let counter t name = Obs.Metrics.counter_value t.metrics name

  let gauge t name = Obs.Metrics.gauge_value t.metrics name

  let gauge_opt t name =
    let v = Obs.Metrics.gauge_value t.metrics name in
    if Float.is_nan v then None else Some v

  let completed t =
    List.fold_left (fun acc (_, r) -> acc + Stats.Recorder.count r) 0 t.latencies

  let n_records t =
    match t.records with
    | Spanner_txns a -> Array.length a
    | Gryff_ops a -> Array.length a

  let verdict_of_result = function Ok () -> Pass | Error m -> Fail m

  let report_check name = function
    | Pass -> ()
    | Fail m -> Fmt.pr "  !! %s: consistency violation in run history: %s@." name m
    | Unknown m -> Fmt.pr "  ?? %s: consistency verdict unknown: %s@." name m

  let print_history ?model = function
    | Pass -> (
      match model with
      | Some m -> Fmt.pr "history: verified (%s)@." m
      | None -> Fmt.pr "history: verified@.")
    | Fail m -> Fmt.pr "history: VIOLATION — %s@." m
    | Unknown m -> Fmt.pr "history: verdict UNKNOWN — %s@." m

  let print_latencies ?(header = "latency (ms)") t =
    Stats.Summary.print_latency_table ~header ~rows:t.latencies ()

  let print_metrics ?header t = Obs.Metrics.print_table ?header t.metrics

  let print_summary ?(header = "run") t =
    print_latencies ~header:(header ^ " latency (ms)") t;
    print_metrics ~header t;
    report_check header t.check
end

type load =
  | Partly_open of { rate : float; stay : float }
  | Closed of { n_clients : int }
  | Slots of { n_slots : int; timeout_us : int }

type window = Tail | Saturation

type spanner = {
  sp_config : Spanner.Config.t;
  sp_reshard : reshard_spec list;
  sp_theta : float;
  sp_keys : int;
  sp_window : window;
}

type gryff = {
  gr_config : Gryff.Config.t;
  gr_sites : int array;
  gr_conflict : float;
  gr_write_ratio : float;
  gr_keys : int;
  gr_unsafe_no_deps : bool;
  gr_window : window;
}

let spanner_deployment config ~theta ~n_keys =
  {
    sp_config = config;
    sp_reshard = [];
    sp_theta = theta;
    sp_keys = n_keys;
    sp_window = Tail;
  }

let gryff_deployment config ~conflict ~write_ratio ~n_keys =
  {
    gr_config = config;
    gr_sites = Array.init config.Gryff.Config.n_replicas Fun.id;
    gr_conflict = conflict;
    gr_write_ratio = write_ratio;
    gr_keys = n_keys;
    gr_unsafe_no_deps = false;
    gr_window = Tail;
  }

(* ------------------------------------------------------------------ *)
(* Arming the environment                                              *)
(* ------------------------------------------------------------------ *)

(* Install the control before the cluster exists — stores register with the
   ambient control at creation time. *)
let install_disk_faults = function
  | None -> None
  | Some df ->
    Some
      (Sim.Durable.Faults.install ~spec:df.df_spec ~integrity:df.df_integrity
         ~seed:df.df_seed ())

(* The background scrub pass: one store verified per period, the scan
   costed on its own station so it competes for simulated CPU. *)
let arm_scrub engine (env : Env.t) ~dctl ~duration_s =
  match (dctl, env.disk_faults) with
  | Some ctl, Some df when df.df_scrub_period_us > 0 ->
    let station = Sim.Station.create engine ~service_time_us:40 in
    Some
      (Sim.Scrub.start engine ~station ~ctl ~tracer:env.trace
         ~period_us:df.df_scrub_period_us
         ~until_us:(Sim.Engine.sec duration_s) ())
  | _ -> None

(* Arm the chaos schedule; returns the injected-event counter. Wherever the
   schedule crashes a site, the same event damages the site's durable
   stores; [on_recover] re-verifies site-local storage as sites come back.
   Gray failures live in the deployment's stations, which the network-level
   injector cannot see, so [Slow]/[Slow_clear] go through [on_slow] and
   [on_slow_clear]. *)
let arm_chaos (env : Env.t) ~engine ~net ?tt ~dctl ~on_recover ~on_slow
    ~on_slow_clear () =
  let faults = ref 0 in
  Option.iter
    (fun schedule ->
      ignore
        (Schedule.apply schedule ~engine ~net ?tt ~tracer:env.trace
           ~on_fault:(fun (ev : Schedule.event) ->
             incr faults;
             match (ev.Schedule.fault, dctl) with
             | Schedule.Slow { site; factor }, _ -> on_slow ~site ~factor
             | Schedule.Slow_clear, _ -> on_slow_clear ()
             | Schedule.Crash ss, Some ctl ->
               List.iter (Sim.Durable.Faults.crash_site ctl) ss
             | Schedule.Recover ss, Some _ -> on_recover ss
             | _ -> ())
           ()))
    env.chaos;
  faults

(* Build the run's retry bucket (if the policy asks for one) on the run's
   engine — returned so the metrics can read taken/denied after the run. *)
let flow_budget (env : Env.t) engine =
  match env.flow with
  | None -> None
  | Some f ->
    Option.map
      (fun (capacity, refill_period_us) ->
        Sim.Rpc.Budget.create engine ~capacity ~refill_period_us)
      f.fl_budget

let add reg name v = Obs.Metrics.add (Obs.Metrics.counter reg name) v

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(* A Gryff register record as a one-op witness transaction on [key], the
   record's key as a string, reads ranked above writes at equal
   carstamps. *)
let gryff_witness_txn ~key (r : Gryff.Cluster.record) =
  let reads =
    match r.Gryff.Cluster.g_kind with
    | Gryff.Cluster.Read | Gryff.Cluster.Rmw ->
      [ (key, r.Gryff.Cluster.g_observed) ]
    | Gryff.Cluster.Write -> []
  in
  let writes =
    match (r.Gryff.Cluster.g_kind, r.Gryff.Cluster.g_written) with
    | (Gryff.Cluster.Write | Gryff.Cluster.Rmw), Some v -> [ (key, v) ]
    | _ -> []
  in
  {
    Rss_core.Witness.proc = r.Gryff.Cluster.g_proc;
    reads;
    writes;
    inv = r.Gryff.Cluster.g_inv;
    resp = r.Gryff.Cluster.g_resp;
    ts = Gryff.Carstamp.pack r.Gryff.Cluster.g_cs;
    rank = (match r.Gryff.Cluster.g_kind with Gryff.Cluster.Read -> 1 | _ -> 0);
  }

(* One step of folding per-key verdicts in key order: the first [Fail]
   wins, otherwise the first [Unknown]; the message names the key. *)
let combine_keyed acc (key, v) =
  match (acc, v) with
  | Run.Fail _, _ | _, Run.Pass | Run.Unknown _, Run.Unknown _ -> acc
  | _, Run.Fail m -> Run.Fail (Fmt.str "key %d: %s" key m)
  | Run.Pass, Run.Unknown m -> Run.Unknown (Fmt.str "key %d: %s" key m)

module Itbl = Hashtbl.Make (Int)

(* Each key's name is made once, beside its checker, so feeding a record
   allocates no key string. *)
let keyed_checkers make =
  let tbl = Itbl.create 256 in
  let checker key =
    match Itbl.find_opt tbl key with
    | Some c -> c
    | None ->
      let c = (string_of_int key, make ()) in
      Itbl.add tbl key c;
      c
  in
  let settled () =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Itbl.fold (fun k (_, oc) acc -> (k, oc) :: acc) tbl [])
  in
  (checker, settled)

let feed_gryff checker (r : Gryff.Cluster.record) =
  let key, oc = checker r.Gryff.Cluster.g_key in
  Rss_core.Check_online.add oc (gryff_witness_txn ~key r)

(* Arm [env.check] before traffic flows. [`Offline] checks the buffered
   history after the run; [`Online] hooks the record stream into
   {!Rss_core.Check_online} checkers (one per key for Gryff registers) so
   verification overlaps the run; [`No_check] reports [Unknown]. The
   returned closure settles the verdict and records its cost. *)
let arm_check (env : Env.t) ~mode ~per_key ~set_hook ~offline =
  let online () =
    let checker, settled =
      keyed_checkers (fun () -> Rss_core.Check_online.create ~mode ())
    in
    set_hook checker;
    fun reg ->
      let ocs = settled () in
      (* Settling may finish deferred work, so results come first. *)
      let results =
        List.map (fun (k, oc) -> (k, Rss_core.Check_online.result oc)) ocs
      in
      let sum f = List.fold_left (fun acc (_, oc) -> acc + f oc) 0 ocs in
      add reg "check.added" (sum Rss_core.Check_online.n_added);
      add reg "check.work" (sum Rss_core.Check_online.work);
      add reg "check.max_displacement"
        (List.fold_left
           (fun acc (_, oc) -> max acc (Rss_core.Check_online.max_displacement oc))
           0 ocs);
      match (per_key, results) with
      | true, _ -> List.fold_left combine_keyed Run.Pass results
      | false, [] -> Run.Pass
      | false, (_, v) :: _ -> v
  in
  let settle =
    match env.check with
    | `No_check -> fun _ -> Run.Unknown "checking disabled"
    | `Offline -> fun _ -> Run.verdict_of_result (offline ())
    | `Online -> online ()
  in
  fun reg ->
    let t0 = Sys.time () in
    let verdict = settle reg in
    Obs.Metrics.set_gauge reg "check.finish_s" (Sys.time () -. t0);
    verdict

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Network and fault accounting. All-zero counters are harmless:
   snapshots keep them, the table renderer filters them. *)
let net_metrics reg ~faults net =
  let c = add reg in
  c "net.messages" (Sim.Net.messages_sent net);
  c "net.bytes" (Sim.Net.bytes_sent net);
  c "fault.injected" faults;
  c "fault.dropped_crash" (Sim.Net.dropped_crash net);
  c "fault.dropped_partition" (Sim.Net.dropped_partition net);
  c "fault.dropped_loss" (Sim.Net.dropped_loss net);
  c "fault.duplicated" (Sim.Net.messages_duplicated net);
  c "fault.delayed" (Sim.Net.messages_delayed net);
  (* Batching accounting — absent on unbatched runs. *)
  if Sim.Net.batch_envelopes net > 0 then begin
    c "batch.envelopes" (Sim.Net.batch_envelopes net);
    c "batch.members" (Sim.Net.batch_members net);
    c "batch.flush.deadline" (Sim.Net.batch_flush_deadline net);
    c "batch.flush.size" (Sim.Net.batch_flush_size net);
    c "batch.flush.idle" (Sim.Net.batch_flush_idle net);
    c "batch.max_members" (Sim.Net.batch_max_members net);
    (* Members-per-envelope distribution. Registry histograms follow the
       µs convention and render in ms, so sizes are stored ×1000: the
       printed table and [Recorder.percentile_ms] read directly in whole
       members. *)
    let h = Obs.Metrics.histogram reg "batch.size" in
    Array.iter
      (fun n -> Stats.Recorder.add h (n * 1000))
      (Stats.Recorder.to_sorted_array (Sim.Net.batch_sizes net))
  end

(* Disk-fault and scrub accounting — absent unless a control is armed. *)
let durable_metrics reg ~dctl ~scrub =
  Option.iter
    (fun ctl ->
      let c = add reg in
      let ds = Sim.Durable.Faults.stats ctl in
      c "durable.fault.torn" ds.Sim.Durable.Faults.fs_torn;
      c "durable.fault.corrupt" ds.Sim.Durable.Faults.fs_corrupt;
      c "durable.fault.resurfaced" ds.Sim.Durable.Faults.fs_resurfaced;
      c "durable.fault.lost_ints" ds.Sim.Durable.Faults.fs_lost_ints;
      c "durable.fault.crashes" ds.Sim.Durable.Faults.fs_crashes;
      Option.iter
        (fun (s : Sim.Scrub.stats) ->
          c "durable.scrub.passes" s.Sim.Scrub.passes;
          c "durable.scrub.entries" s.Sim.Scrub.entries;
          c "durable.scrub.flagged" s.Sim.Scrub.flagged)
        scrub)
    dctl

(* Flow-control accounting — absent unless a protection is armed or fired,
   mirroring the batch.* convention. Queue-depth samples follow the ×1000
   histogram convention (see batch.size): the table reads in whole jobs. *)
let flow_metrics reg (env : Env.t) ~budget ~stations ~expired ~shed ~abandoned
    ~hedges ~hedge_wins =
  if env.flow <> None || expired > 0 || shed > 0 || abandoned > 0 || hedges > 0
  then begin
    let c = add reg in
    c "flow.expired" expired;
    c "flow.shed" shed;
    c "flow.abandoned" abandoned;
    c "flow.hedges" hedges;
    c "flow.hedge_wins" hedge_wins;
    Option.iter
      (fun b ->
        c "flow.budget.taken" (Sim.Rpc.Budget.taken b);
        c "flow.budget.denied" (Sim.Rpc.Budget.denied b))
      budget;
    let qd = Obs.Metrics.histogram reg "flow.queue_depth" in
    let sj = Obs.Metrics.histogram reg "flow.sojourn_us" in
    List.iter
      (fun st ->
        Array.iter
          (fun d -> Stats.Recorder.add qd (d * 1000))
          (Stats.Recorder.to_sorted_array (Sim.Station.queue_depths st));
        Array.iter (Stats.Recorder.add sj)
          (Stats.Recorder.to_sorted_array (Sim.Station.sojourns st)))
      stations
  end

(* Failover and repair counters are reported whenever faults or failover
   are armed; fault-free runs keep their tables short. *)
let faulty (env : Env.t) =
  env.failover || env.chaos <> None || env.disk_faults <> None

(* ------------------------------------------------------------------ *)
(* Loads                                                               *)
(* ------------------------------------------------------------------ *)

(* Drive [load] over clients made by [client] (its argument picks the
   site). Each operation is [sample]d, named by [kind] (an index into
   [kinds]) and issued by [exec]. Returns the latency recorders and a
   closure adding the load's own metrics to the run's registry:
   - [Tail]: the first tenth is warm-up; one recorder per op kind.
   - [Saturation]: the first fifth is warm-up and only ops invoked before
     the horizon count; one recorder named [total], plus throughput and
     p50 gauges.
   - [Slots] ignores the window: every counted completion goes to one
     ["ops"] recorder, and the op.* counters split timeouts by kind and
     at the schedule's last fault ([quiet_us]). *)
let drive engine load ~window ~kinds ~total ~rng ~duration_s ~quiet_us ~client
    ~sample ~kind ~exec =
  let until = Sim.Engine.sec duration_s in
  (* Open and closed loops: the window's recorders, and the loop body that
     samples, issues and records one operation. *)
  let measured () =
    let latencies, record, load_metrics =
      match window with
      | Tail ->
        let warmup = Sim.Engine.sec (duration_s /. 10.0) in
        let recs = Array.map (fun _ -> Stats.Recorder.create ()) kinds in
        ( Array.to_list (Array.map2 (fun n r -> (n, r)) kinds recs),
          (fun k t0 ->
            if t0 >= warmup then
              Stats.Recorder.add recs.(k) (Sim.Engine.now engine - t0)),
          fun _ -> () )
      | Saturation ->
        let warmup = Sim.Engine.sec (duration_s /. 5.0) in
        let lat = Stats.Recorder.create () in
        let completed = ref 0 in
        ( [ (total, lat) ],
          (fun _ t0 ->
            if t0 >= warmup && t0 < until then begin
              incr completed;
              Stats.Recorder.add lat (Sim.Engine.now engine - t0)
            end),
          fun reg ->
            Obs.Metrics.set_gauge reg "throughput_tps"
              (Stats.Summary.throughput ~count:!completed
                 ~duration_us:(until - warmup));
            Obs.Metrics.set_gauge reg "p50_ms"
              (Option.value ~default:Float.nan
                 (Stats.Recorder.percentile_ms_opt lat 50.0)) )
    in
    let body c k =
      let op = sample () in
      let t0 = Sim.Engine.now engine in
      let kd = kind op in
      exec c op (fun () ->
          record kd t0;
          k ())
    in
    (latencies, body, load_metrics)
  in
  match load with
  | Slots { n_slots; timeout_us } ->
    let lat = Stats.Recorder.create () in
    let stats =
      Workload.Client_model.slots engine ~n_slots ~timeout_us ~quiet_us
        ~latency:(Stats.Recorder.add lat) ~new_session:client
        ~issue:(fun c ~kind:name ~finish ->
          let op = sample () in
          name kinds.(kind op);
          exec c op finish)
        ~until ()
    in
    ( [ ("ops", lat) ],
      fun reg ->
        let c = add reg in
        List.iter
          (fun (k, v) -> c ("op.timed_out." ^ k) v)
          (Workload.Client_model.timed_out_by_kind stats);
        c "op.completed" stats.completed;
        c "op.timed_out" stats.timed_out;
        c "op.post_heal_completed" stats.post_quiet_completed;
        c "op.post_heal_timed_out" stats.post_quiet_timed_out )
  | Partly_open { rate; stay } ->
    let latencies, body, load_metrics = measured () in
    let sessions = Hashtbl.create 1024 in
    let session_client s =
      match Hashtbl.find_opt sessions s with
      | Some c -> c
      | None ->
        let c = client s in
        Hashtbl.add sessions s c;
        c
    in
    ignore
      (Workload.Client_model.partly_open engine ~rng:(Sim.Rng.split rng)
         ~arrival_rate_per_sec:rate ~stay
         ~body:(fun ~client k -> body (session_client client) k)
         ~until ());
    (latencies, load_metrics)
  | Closed { n_clients } ->
    let latencies, body, load_metrics = measured () in
    let clients = Array.init n_clients client in
    Workload.Client_model.closed_loop engine ~n_clients
      ~body:(fun ~client k -> body clients.(client) k)
      ~until ();
    (latencies, load_metrics)

let quiet_us (env : Env.t) =
  Option.fold ~none:0 ~some:Schedule.end_of_faults env.chaos

let max_events = 600_000_000

(* Run the sweeps registered by tracked writes, oldest first; each records
   its op if a fault swallowed the acknowledgement of a write that took
   effect. Returns how many did. *)
let sweep_unacked sweeps =
  List.fold_left (fun n sweep -> if sweep () then n + 1 else n) 0 (List.rev sweeps)

(* ------------------------------------------------------------------ *)
(* Spanner / Spanner-RSS                                               *)
(* ------------------------------------------------------------------ *)

let spanner_metrics reg (env : Env.t) cluster =
  let c = add reg in
  let s = Spanner.Cluster.stats cluster in
  c "rw.committed" s.Spanner.Cluster.rw_committed;
  c "rw.aborted_attempts" s.Spanner.Cluster.rw_aborted_attempts;
  c "rw.wounds" s.Spanner.Cluster.wounds;
  c "ro.count" s.Spanner.Cluster.ro_count;
  c "ro.slow" s.Spanner.Cluster.ro_slow;
  c "ro.blocked_at_shards" s.Spanner.Cluster.ro_blocked_at_shards;
  let ps = Spanner.Cluster.place_stats cluster in
  c "place.epoch" ps.Spanner.Cluster.epoch;
  c "place.migrations" ps.Spanner.Cluster.migrations;
  c "place.migrations_failed" ps.Spanner.Cluster.migrations_failed;
  c "place.migration_retries" ps.Spanner.Cluster.migration_retries;
  c "place.keys_moved" ps.Spanner.Cluster.keys_moved;
  c "place.redirects" ps.Spanner.Cluster.redirects;
  c "place.fence_blocked" ps.Spanner.Cluster.fence_blocked;
  c "place.fence_hold_us" ps.Spanner.Cluster.fence_hold_us;
  c "place.max_fence_hold_us" ps.Spanner.Cluster.max_fence_hold_us;
  c "place.directory_appends" ps.Spanner.Cluster.directory_appends;
  if faulty env then begin
    let fs = Spanner.Cluster.failover_stats cluster in
    c "failover.view_changes" fs.Spanner.Cluster.view_changes;
    c "failover.heartbeats" fs.Spanner.Cluster.heartbeats;
    c "failover.catchups" fs.Spanner.Cluster.catchups;
    c "failover.dup_acks" fs.Spanner.Cluster.dup_acks;
    c "failover.max_election_us" fs.Spanner.Cluster.max_election_us;
    c "failover.terminates" fs.Spanner.Cluster.terminates;
    c "failover.terminate_commits" fs.Spanner.Cluster.terminate_commits;
    c "failover.in_doubt_resolved" fs.Spanner.Cluster.in_doubt_resolved;
    c "failover.rpc_retries" fs.Spanner.Cluster.rpc_retries;
    c "failover.rpc_exhausted" fs.Spanner.Cluster.rpc_exhausted;
    c "failover.durable_appends" fs.Spanner.Cluster.durable_appends;
    c "failover.durable_bytes" fs.Spanner.Cluster.durable_bytes;
    c "durable.repair.torn" fs.Spanner.Cluster.torn_repaired;
    c "durable.repair.quarantined" fs.Spanner.Cluster.corrupt_quarantined;
    c "durable.repair.peer" fs.Spanner.Cluster.peer_repairs;
    c "durable.repair.unrepaired" fs.Spanner.Cluster.unrepaired;
    c "durable.repair.place"
      (Place.Directory.repairs (Spanner.Cluster.directory cluster))
  end

let spanner ?prepare d load (env : Env.t) ~duration_s ~seed =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  let dctl = install_disk_faults env.disk_faults in
  Fun.protect ~finally:(fun () -> Option.iter Sim.Durable.Faults.retire dctl)
  @@ fun () ->
  let config = d.sp_config in
  let cluster = Spanner.Cluster.create engine ~rng config in
  let net = Spanner.Cluster.net cluster in
  Option.iter (fun f -> f engine net) prepare;
  if env.batching <> None then Sim.Net.set_batching net env.batching;
  let budget = flow_budget env engine in
  Option.iter
    (fun f ->
      Spanner.Cluster.set_admission cluster f.fl_admission;
      Spanner.Cluster.set_drop_expired cluster f.fl_drop_expired;
      if f.fl_hedge_us > 0 then Spanner.Cluster.set_hedge_us cluster f.fl_hedge_us;
      Spanner.Cluster.set_retry_budget cluster budget)
    env.flow;
  if Obs.Trace.enabled env.trace then Spanner.Cluster.set_tracer cluster env.trace;
  if env.failover then
    (* A dedicated seeded stream for retry jitter: the workload stream stays
       untouched, and the failover timers stop at the horizon so the engine
       queue still drains. *)
    Spanner.Cluster.enable_failover cluster
      ~rng:(Sim.Rng.make (0xfa11 + seed))
      ~until_us:(Sim.Engine.sec duration_s + Sim.Engine.sec 4.0) ();
  (* The failover fallback deadline settles operations orphaned by a
     coordinator crash; it must sit above the load's fault-free tail (just
     under a slot's timeout, 10 s for open and closed loads) or
     deadline-aborts amplify load into congestion collapse. An explicit
     [Env.deadline_us] overrides it. *)
  let deadline_us =
    match (env.deadline_us, load) with
    | (Some _ as d), _ -> d
    | None, _ when not env.failover -> None
    | None, Slots { timeout_us; _ } -> Some (timeout_us - 200_000)
    | None, (Partly_open _ | Closed _) -> Some 10_000_000
  in
  let faults =
    arm_chaos env ~engine ~net ~tt:(Spanner.Cluster.truetime cluster) ~dctl
      ~on_recover:(fun ss ->
        if List.mem 0 ss then
          ignore (Place.Directory.recover (Spanner.Cluster.directory cluster)))
      ~on_slow:(Spanner.Cluster.set_site_slowdown cluster)
      ~on_slow_clear:(fun () -> Spanner.Cluster.clear_slowdowns cluster)
      ()
  in
  let scrub = arm_scrub engine env ~dctl ~duration_s in
  let check =
    arm_check env
      ~mode:
        (match config.Spanner.Config.mode with
        | Spanner.Config.Strict -> `Strict
        | Spanner.Config.Rss -> `Rss)
      ~per_key:false
      ~set_hook:(fun checker ->
        Spanner.Cluster.set_record_hook cluster (fun x ->
            Rss_core.Check_online.add (snd (checker 0)) x))
      ~offline:(fun () -> Spanner.Cluster.check_history cluster)
  in
  let retwis =
    Workload.Retwis.create ~rng:(Sim.Rng.split rng) ~n_keys:d.sp_keys
      ~theta:d.sp_theta
  in
  let until = Sim.Engine.sec duration_s in
  List.iter
    (fun spec ->
      Sim.Engine.schedule engine ~kind:"place.reshard"
        ~after:(int_of_float (spec.rs_at *. float_of_int until))
        (fun () ->
          Spanner.Cluster.migrate ~no_fence:spec.rs_no_fence cluster
            ~lo:spec.rs_lo ~hi:spec.rs_hi ~dst:spec.rs_dst (fun _ -> ())))
    d.sp_reshard;
  (* Under chaos every RW is tracked, with the same fresh values Client.rw
     would pick: if its last attempt committed but a fault swallowed the
     acknowledgement, its writes are visible at the shards, so the sweep
     records it as incomplete (resp = max_int: no real-time obligations,
     reads not checked) — exactly how complete(α) treats a stopped
     client. *)
  let track = env.chaos <> None in
  let sweeps = ref [] in
  let exec c txn k =
    let read_keys = txn.Workload.Retwis.read_keys in
    if Workload.Retwis.is_read_only txn then
      Spanner.Client.ro ?deadline_us c ~keys:read_keys (fun _ -> k ())
    else if not track then
      Spanner.Client.rw ?deadline_us c ~read_keys
        ~write_keys:txn.Workload.Retwis.write_keys (fun _ -> k ())
    else begin
      let writes =
        List.map
          (fun key -> (key, Spanner.Cluster.fresh_value cluster))
          txn.Workload.Retwis.write_keys
      in
      let proc = Spanner.Client.proc c and inv = Sim.Engine.now engine in
      let last = ref (-1) and acked = ref false in
      let sweep () =
        (not !acked) && !last >= 0
        &&
        match Spanner.Cluster.txn_outcome cluster !last with
        | Some (Spanner.Types.Committed ts) ->
          Spanner.Cluster.record cluster
            {
              Rss_core.Witness.proc;
              reads = [];
              writes = List.map (fun (k, v) -> (string_of_int k, v)) writes;
              inv;
              resp = max_int;
              ts;
              rank = 0;
            };
          true
        | Some Spanner.Types.Aborted | None -> false
      in
      sweeps := sweep :: !sweeps;
      Spanner.Client.rw_kv ?deadline_us c
        ~on_attempt:(fun id -> last := id)
        ~read_keys ~writes
        (fun _ ->
          acked := true;
          k ())
    end
  in
  let sites = config.Spanner.Config.client_sites in
  let latencies, load_metrics =
    drive engine load ~window:d.sp_window ~kinds:[| "ro"; "rw" |] ~total:"txn"
      ~rng ~duration_s ~quiet_us:(quiet_us env)
      ~client:(fun i ->
        Spanner.Client.create cluster ~site:sites.(i mod Array.length sites))
      ~sample:(fun () -> Workload.Retwis.sample retwis)
      ~kind:(fun txn -> if Workload.Retwis.is_read_only txn then 0 else 1)
      ~exec
  in
  Sim.Engine.run ~max_events engine;
  let unacked = sweep_unacked !sweeps in
  let records = Spanner.Cluster.records cluster in
  let reg = Obs.Metrics.create () in
  spanner_metrics reg env cluster;
  net_metrics reg ~faults:!faults net;
  let fs = Spanner.Cluster.flow_stats cluster in
  flow_metrics reg env ~budget ~stations:(Spanner.Cluster.stations cluster)
    ~expired:fs.Spanner.Cluster.expired ~shed:fs.Spanner.Cluster.shed
    ~abandoned:fs.Spanner.Cluster.abandoned ~hedges:fs.Spanner.Cluster.hedges
    ~hedge_wins:fs.Spanner.Cluster.hedge_wins;
  durable_metrics reg ~dctl ~scrub;
  load_metrics reg;
  if track then add reg "op.unacked_commits_swept" unacked;
  (match load with
  | Slots _ -> add reg "op.history_records" (Array.length records)
  | Partly_open _ | Closed _ -> ());
  if d.sp_window = Saturation then begin
    let s = Spanner.Cluster.stats cluster in
    let txns = s.Spanner.Cluster.rw_committed + s.Spanner.Cluster.ro_count in
    Obs.Metrics.set_gauge reg "msgs_per_txn"
      (if txns = 0 then 0.0
       else float_of_int s.Spanner.Cluster.messages /. float_of_int txns)
  end;
  let check = check reg in
  {
    Run.latencies;
    metrics = Obs.Metrics.snapshot reg;
    check;
    records = Run.Spanner_txns records;
    duration_us = Sim.Engine.now engine;
  }

(* ------------------------------------------------------------------ *)
(* Gryff / Gryff-RSC                                                   *)
(* ------------------------------------------------------------------ *)

let gryff_metrics reg (env : Env.t) cluster =
  let c = add reg in
  let s = Gryff.Cluster.stats cluster in
  c "read.count" s.Gryff.Cluster.reads;
  c "read.second_round" s.Gryff.Cluster.read_second_round;
  c "read.deps_created" s.Gryff.Cluster.deps_created;
  c "write.count" s.Gryff.Cluster.writes;
  c "rmw.count" s.Gryff.Cluster.rmws;
  c "rmw.slow" s.Gryff.Cluster.rmw_slow;
  if faulty env then begin
    let rs = Gryff.Cluster.retrans_stats cluster in
    c "failover.rpc_calls" rs.Gryff.Cluster.rpc_calls;
    c "failover.rpc_retries" rs.Gryff.Cluster.rpc_retries;
    c "failover.rpc_exhausted" rs.Gryff.Cluster.rpc_exhausted
  end

let gryff ?prepare d load (env : Env.t) ~duration_s ~seed =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.make seed in
  (* Gryff keeps no durable stores, so the control registers nothing — but
     accepting the spec keeps fault batteries uniform across protocols. *)
  let dctl = install_disk_faults env.disk_faults in
  Fun.protect ~finally:(fun () -> Option.iter Sim.Durable.Faults.retire dctl)
  @@ fun () ->
  let config = d.gr_config in
  let cluster = Gryff.Cluster.create engine ~rng config in
  let net = Gryff.Cluster.net cluster in
  Option.iter (fun f -> f engine net) prepare;
  if env.batching <> None then Sim.Net.set_batching net env.batching;
  let budget = flow_budget env engine in
  Option.iter
    (fun f ->
      Gryff.Cluster.set_admission cluster f.fl_admission;
      Gryff.Cluster.set_drop_expired cluster f.fl_drop_expired;
      if f.fl_hedge_us > 0 then Gryff.Cluster.set_hedge_us cluster f.fl_hedge_us;
      Option.iter (Gryff.Cluster.set_read_fanout cluster) f.fl_gryff_fanout;
      Gryff.Cluster.set_retry_budget cluster budget)
    env.flow;
  let deadline_us = env.deadline_us in
  if Obs.Trace.enabled env.trace then Gryff.Cluster.set_tracer cluster env.trace;
  if env.failover then
    Gryff.Cluster.enable_retrans cluster ~rng:(Sim.Rng.make (0xfa11 + seed)) ();
  let faults =
    arm_chaos env ~engine ~net ~dctl
      ~on_recover:(fun _ -> ())
      ~on_slow:(Gryff.Cluster.set_site_slowdown cluster)
      ~on_slow_clear:(fun () -> Gryff.Cluster.clear_slowdowns cluster)
      ()
  in
  let scrub = arm_scrub engine env ~dctl ~duration_s in
  (* Registers are per-key: carstamp order — hence the mode's real-time
     constraint — is only meaningful within a key, so each key gets its own
     online checker, mirroring Gryff.Cluster.check_history's per-key split. *)
  let check =
    arm_check env
      ~mode:
        (match config.Gryff.Config.mode with
        | Gryff.Config.Lin -> `Strict
        | Gryff.Config.Rsc -> `Rss)
      ~per_key:true
      ~set_hook:(fun checker ->
        Gryff.Cluster.set_record_hook cluster (feed_gryff checker))
      ~offline:(fun () -> Gryff.Cluster.check_history cluster)
  in
  let ycsb =
    Workload.Ycsb.create ~rng:(Sim.Rng.split rng) ~n_keys:d.gr_keys
      ~write_ratio:d.gr_write_ratio ~conflict:d.gr_conflict
  in
  (* A write whose propagate phase started may sit at some replicas and be
     observed even though the acks never came back: the sweep records it as
     incomplete, same convention as Spanner's. *)
  let track = env.chaos <> None in
  let sweeps = ref [] in
  let exec c (op : Workload.Ycsb.op) k =
    let key = op.Workload.Ycsb.key in
    if op.Workload.Ycsb.is_write then begin
      let value = Gryff.Cluster.fresh_value cluster in
      if not track then
        Gryff.Client.write ?deadline_us c ~key ~value (fun _ -> k ())
      else begin
        let proc = Gryff.Client.proc c and inv = Sim.Engine.now engine in
        let applied = ref None and acked = ref false in
        let sweep () =
          match !applied with
          | Some g_cs when not !acked ->
            Gryff.Cluster.record cluster
              {
                Gryff.Cluster.g_proc = proc;
                g_kind = Gryff.Cluster.Write;
                g_key = key;
                g_observed = None;
                g_written = Some value;
                g_cs;
                g_inv = inv;
                g_resp = max_int;
              };
            true
          | _ -> false
        in
        sweeps := sweep :: !sweeps;
        Gryff.Client.write ?deadline_us c
          ~on_apply:(fun cs -> applied := Some cs)
          ~key ~value
          (fun _ ->
            acked := true;
            k ())
      end
    end
    else Gryff.Client.read ?deadline_us c ~key (fun _ -> k ())
  in
  let sites = d.gr_sites in
  let latencies, load_metrics =
    drive engine load ~window:d.gr_window ~kinds:[| "read"; "write" |]
      ~total:"op" ~rng ~duration_s ~quiet_us:(quiet_us env)
      ~client:(fun i ->
        Gryff.Client.create ~unsafe_no_deps:d.gr_unsafe_no_deps cluster
          ~site:sites.(i mod Array.length sites))
      ~sample:(fun () -> Workload.Ycsb.sample ycsb)
      ~kind:(fun op -> if op.Workload.Ycsb.is_write then 1 else 0)
      ~exec
  in
  Sim.Engine.run ~max_events engine;
  let unacked = sweep_unacked !sweeps in
  let records = Gryff.Cluster.records cluster in
  let reg = Obs.Metrics.create () in
  gryff_metrics reg env cluster;
  net_metrics reg ~faults:!faults net;
  let fs = Gryff.Cluster.flow_stats cluster in
  flow_metrics reg env ~budget ~stations:(Gryff.Cluster.stations cluster)
    ~expired:fs.Gryff.Cluster.expired ~shed:fs.Gryff.Cluster.shed
    ~abandoned:fs.Gryff.Cluster.abandoned ~hedges:fs.Gryff.Cluster.hedges
    ~hedge_wins:fs.Gryff.Cluster.hedge_wins;
  durable_metrics reg ~dctl ~scrub;
  load_metrics reg;
  if track then add reg "op.unacked_commits_swept" unacked;
  (match load with
  | Slots _ -> add reg "op.history_records" (Array.length records)
  | Partly_open _ | Closed _ -> ());
  let check = check reg in
  {
    Run.latencies;
    metrics = Obs.Metrics.snapshot reg;
    check;
    records = Run.Gryff_ops records;
    duration_us = Sim.Engine.now engine;
  }
