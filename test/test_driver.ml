(* Golden pins over every driver path: a Spanner WAN run with chaos,
   failover, disk faults and a live reshard armed; a single-DC Gryff
   saturation run; and chaos audits of all four protocols. Each pin is the
   MD5 of the run's history, simulated duration, counters and latency
   summaries. Gryff written values print as their rank in first-write order,
   so relabelling the values a workload writes keeps the pin while
   reads-from stays pinned. Captured before the drivers were merged; a
   refactor of the drivers must reproduce every pin unedited. *)

let check = Alcotest.check
let string = Alcotest.string

module W = Rss_core.Witness

let add_spanner_history b (a : W.txn array) =
  Array.iter
    (fun (x : W.txn) ->
      Buffer.add_string b
        (Printf.sprintf "p%d i%d r%d t%d k%d" x.W.proc x.W.inv x.W.resp x.W.ts
           x.W.rank);
      List.iter
        (fun (k, v) ->
          Buffer.add_string b
            (Printf.sprintf " R%s=%s" k
               (match v with None -> "nil" | Some v -> string_of_int v)))
        x.W.reads;
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " W%s=%d" k v))
        x.W.writes;
      Buffer.add_char b '\n')
    a

let add_gryff_history b (a : Gryff.Cluster.record array) =
  let rank : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun (g : Gryff.Cluster.record) ->
      match g.Gryff.Cluster.g_written with
      | Some v when not (Hashtbl.mem rank v) ->
        Hashtbl.add rank v (Hashtbl.length rank)
      | _ -> ())
    a;
  let value = function
    | None -> "-"
    | Some v -> (
      match Hashtbl.find_opt rank v with
      | Some r -> "#" ^ string_of_int r
      | None -> "?")
  in
  Array.iter
    (fun (g : Gryff.Cluster.record) ->
      Buffer.add_string b
        (Printf.sprintf "p%d %s k%d o%s w%s cs%d.%d.%d i%d r%d\n"
           g.Gryff.Cluster.g_proc
           (match g.Gryff.Cluster.g_kind with
           | Gryff.Cluster.Read -> "rd"
           | Gryff.Cluster.Write -> "wr"
           | Gryff.Cluster.Rmw -> "rmw")
           g.Gryff.Cluster.g_key
           (value g.Gryff.Cluster.g_observed)
           (value g.Gryff.Cluster.g_written)
           g.Gryff.Cluster.g_cs.Gryff.Carstamp.ts
           g.Gryff.Cluster.g_cs.Gryff.Carstamp.cid
           g.Gryff.Cluster.g_cs.Gryff.Carstamp.rmwc g.Gryff.Cluster.g_inv
           g.Gryff.Cluster.g_resp))
    a

let add_recorder b name r =
  if Stats.Recorder.is_empty r then
    Buffer.add_string b (Printf.sprintf "lat %s n=0\n" name)
  else
    Buffer.add_string b
      (Printf.sprintf "lat %s n=%d p50=%.1f p99=%.1f max=%d\n" name
         (Stats.Recorder.count r)
         (Stats.Recorder.percentile r 50.0)
         (Stats.Recorder.percentile r 99.0)
         (Stats.Recorder.max r))

let add_counters b counter names =
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "%s=%d\n" n (counter n)))
    names

let md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

(* {1 Harness runs} *)

let harness_counters =
  [
    "rw.committed"; "rw.aborted_attempts"; "rw.wounds"; "ro.count"; "ro.slow";
    "ro.blocked_at_shards"; "read.count"; "read.second_round";
    "read.deps_created"; "write.count"; "rmw.count"; "rmw.slow";
    "net.messages"; "net.bytes"; "fault.injected"; "fault.dropped_crash";
    "fault.dropped_partition"; "fault.dropped_loss"; "fault.duplicated";
    "fault.delayed"; "place.epoch"; "place.migrations";
    "place.migrations_failed"; "place.migration_retries"; "place.keys_moved";
    "place.redirects"; "place.fence_blocked"; "place.fence_hold_us";
    "place.max_fence_hold_us"; "place.directory_appends";
    "failover.view_changes"; "failover.heartbeats"; "failover.catchups";
    "failover.dup_acks"; "failover.max_election_us"; "failover.terminates";
    "failover.terminate_commits"; "failover.in_doubt_resolved";
    "failover.rpc_retries"; "failover.rpc_exhausted";
    "failover.durable_appends"; "failover.durable_bytes";
    "failover.rpc_calls"; "durable.repair.torn"; "durable.repair.quarantined";
    "durable.repair.peer"; "durable.repair.unrepaired"; "durable.repair.place";
    "durable.fault.torn"; "durable.fault.corrupt"; "durable.fault.resurfaced";
    "durable.fault.lost_ints"; "durable.fault.crashes"; "durable.scrub.passes";
    "durable.scrub.entries"; "durable.scrub.flagged";
  ]

let harness_digest (r : Harness.Run.t) =
  let b = Buffer.create 65536 in
  (match r.Harness.Run.records with
  | Harness.Run.Spanner_txns a -> add_spanner_history b a
  | Harness.Run.Gryff_ops a -> add_gryff_history b a);
  Buffer.add_string b (Printf.sprintf "duration=%d\n" r.Harness.Run.duration_us);
  add_counters b (Harness.Run.counter r) harness_counters;
  List.iter (fun (n, rc) -> add_recorder b n rc) r.Harness.Run.latencies;
  List.iter
    (fun g ->
      match Harness.Run.gauge_opt r g with
      | Some v -> Buffer.add_string b (Printf.sprintf "%s=%.6f\n" g v)
      | None -> ())
    [ "throughput_tps"; "p50_ms"; "msgs_per_txn" ];
  md5 b

let spanner_wan_armed () =
  let seed = 3 and duration_s = 4.0 in
  let env =
    Harness.Env.(
      default
      |> with_chaos
           (Chaos.Audit.nemesis_schedule Chaos.Audit.Spanner_rss
              Chaos.Nemesis.Leader_kill ~duration_s ~seed)
      |> with_failover true
      |> with_disk_faults
           (Chaos.Audit.default_disk_faults
              ?spec:(Chaos.Nemesis.disk_spec Chaos.Nemesis.Disk_tear)
              ~seed ())
      |> with_check `No_check)
  in
  Chaos.Driver.spanner
    {
      (Chaos.Driver.spanner_deployment
         (Spanner.Config.wan3 ~mode:Spanner.Config.Rss ())
         ~theta:0.75 ~n_keys:2_000) with
      Chaos.Driver.sp_reshard =
        [
          {
            Chaos.Driver.rs_at = 0.4;
            rs_lo = 0;
            rs_hi = 250;
            rs_dst = 1;
            rs_no_fence = false;
          };
        ];
    }
    (Chaos.Driver.Partly_open { rate = 20.0; stay = 0.9 })
    env ~duration_s ~seed

let gryff_dc_plain () =
  Harness.gryff_dc
    ~env:Harness.Env.(default |> with_check `No_check)
    ~mode:Gryff.Config.Rsc ~service_time_us:10 ~n_clients:8 ~conflict:0.2
    ~write_ratio:0.4 ~n_keys:200 ~duration_s:1.0 ~seed:5 ()

(* {1 Chaos audits} *)

let audit_counters =
  [
    "op.completed"; "op.timed_out"; "op.post_heal_completed";
    "op.post_heal_timed_out"; "op.aborted_attempts";
    "op.unacked_commits_swept"; "op.history_records"; "fault.injected";
    "net.messages"; "fault.dropped_crash"; "fault.dropped_partition";
    "fault.dropped_loss"; "fault.duplicated"; "fault.delayed";
    "failover.view_changes"; "failover.rpc_retries";
    "failover.in_doubt_resolved"; "failover.max_election_us";
    "place.migrations"; "place.migration_retries"; "place.redirects";
    "durable.fault.torn"; "durable.fault.corrupt"; "durable.fault.resurfaced";
    "durable.fault.lost_ints"; "durable.fault.crashes"; "durable.scrub.passes";
    "durable.scrub.entries"; "durable.scrub.flagged"; "durable.repair.torn";
    "durable.repair.quarantined"; "durable.repair.peer";
    "durable.repair.place"; "durable.repair.unrepaired";
  ]

(* The audit's counters under the names its report prints; the wound-wait
   retry count is the record's [aborted_attempts] field. *)
let audit_counter (r : Chaos.Audit.run) = function
  | "op.aborted_attempts" -> r.Chaos.Audit.aborted_attempts
  | n -> Chaos.Audit.counter r n

let audit_digest (r : Chaos.Audit.run) =
  let m = r.Chaos.Audit.metrics in
  let counter = audit_counter r in
  let b = Buffer.create 65536 in
  (match r.Chaos.Audit.records with
  | Chaos.Audit.Spanner_records a -> add_spanner_history b a
  | Chaos.Audit.Gryff_records a -> add_gryff_history b a);
  Buffer.add_string b (Printf.sprintf "duration=%d\n" r.Chaos.Audit.duration_us);
  Buffer.add_string b
    (Printf.sprintf "check=%s\n"
       (match r.Chaos.Audit.check with Ok () -> "ok" | Error _ -> "error"));
  add_counters b counter audit_counters;
  List.iter
    (fun (n, v) ->
      if String.length n > 13 && String.sub n 0 13 = "op.timed_out." then
        Buffer.add_string b (Printf.sprintf "%s=%d\n" n v))
    m.Obs.Metrics.counters;
  (match List.assoc_opt "ops" m.Obs.Metrics.histograms with
  | Some rc -> add_recorder b "ops" rc
  | None -> add_recorder b "ops" (Stats.Recorder.create ()));
  md5 b

let audit ?disk_faults ?(failover = false) ?n_migrations ?n_slots ?n_keys
    ?timeout_us ?conflict ?write_ratio ?unsafe_no_deps protocol preset
    ~duration_s ~seed =
  let schedule = Chaos.Audit.nemesis_schedule protocol preset ~duration_s ~seed in
  Chaos.Audit.run protocol ~schedule ?disk_faults ~failover ?n_migrations
    ?n_slots ?n_keys ?timeout_us ?conflict ?write_ratio ?unsafe_no_deps
    ~duration_s ~seed ()

let audit_spanner_rss_leader_kill () =
  audit Chaos.Audit.Spanner_rss Chaos.Nemesis.Leader_kill ~failover:true
    ~n_slots:8 ~duration_s:4.0 ~seed:7

let audit_spanner_disk_tear () =
  let seed = 9 in
  audit Chaos.Audit.Spanner_strict Chaos.Nemesis.Disk_tear ~failover:true
    ~disk_faults:
      (Chaos.Audit.default_disk_faults
         ?spec:(Chaos.Nemesis.disk_spec Chaos.Nemesis.Disk_tear)
         ~seed ())
    ~n_migrations:1 ~n_slots:8 ~duration_s:4.0 ~seed

let audit_spanner_rss_partition () =
  audit Chaos.Audit.Spanner_rss Chaos.Nemesis.Partition_heal ~n_slots:10
    ~n_keys:200 ~duration_s:4.0 ~seed:1

let audit_gryff_crash () =
  audit Chaos.Audit.Gryff_lin Chaos.Nemesis.Crash_recover ~n_slots:10
    ~n_keys:16 ~duration_s:4.0 ~seed:1

let audit_gryff_mixed () =
  audit Chaos.Audit.Gryff_lin Chaos.Nemesis.Mixed ~failover:true ~n_slots:8
    ~duration_s:3.0 ~seed:11

let audit_gryff_rsc_unsafe () =
  audit Chaos.Audit.Gryff_rsc Chaos.Nemesis.Asym_block ~unsafe_no_deps:true
    ~n_slots:10 ~n_keys:4 ~timeout_us:600_000 ~conflict:0.5 ~write_ratio:0.3
    ~duration_s:2.5 ~seed:13

let pins =
  [
    ( "harness spanner_wan armed",
      "0e481a7a2b3be5a1dae3d327e036591c",
      fun () -> harness_digest (spanner_wan_armed ()) );
    ( "harness gryff_dc",
      "38f639fc8289b94863f8b11a3b5cde35",
      fun () -> harness_digest (gryff_dc_plain ()) );
    ( "audit spanner-rss leader-kill",
      "52508b897bce9cbb3bef03b637c1fadc",
      fun () -> audit_digest (audit_spanner_rss_leader_kill ()) );
    ( "audit spanner disk-tear",
      "4c73318724a994d587fdee7e50239241",
      fun () -> audit_digest (audit_spanner_disk_tear ()) );
    ( "audit spanner-rss partition-heal sweep",
      "02fcaf52ed143c9776f7e4c8626dd7c5",
      fun () -> audit_digest (audit_spanner_rss_partition ()) );
    ( "audit gryff crash-recover sweep",
      "57ed4f801f2dafab78d531cef546a19a",
      fun () -> audit_digest (audit_gryff_crash ()) );
    ( "audit gryff mixed",
      "4a66e8d7b826660d1c332b7041ff1410",
      fun () -> audit_digest (audit_gryff_mixed ()) );
    ( "audit gryff-rsc unsafe",
      "50af6f01b85a6e86e1d7a202215878d9",
      fun () -> audit_digest (audit_gryff_rsc_unsafe ()) );
  ]

(* {1 Every Env field reaches every preset} *)

let spanner_dc env =
  Harness.spanner_dc ~env ~mode:Spanner.Config.Rss ~n_shards:3
    ~service_time_us:20 ~n_clients:8 ~n_keys:200 ~duration_s:1.0 ~seed:7 ()

(* At the parent commit the single-DC presets dropped these fields. *)
let test_dc_presets_honour_env () =
  let r = spanner_dc Harness.Env.(default |> with_failover true) in
  Alcotest.(check bool)
    "spanner_dc failover: shard groups exchange heartbeats" true
    (Harness.Run.counter r "failover.heartbeats" > 0);
  Alcotest.(check bool) "spanner_dc failover run verified" true
    (Harness.Run.passed r);
  let r =
    spanner_dc
      Harness.Env.(
        default |> with_disk_faults (Chaos.Audit.default_disk_faults ~seed:7 ()))
  in
  Alcotest.(check bool)
    "spanner_dc disk faults: the background scrub runs" true
    (Harness.Run.counter r "durable.scrub.passes" > 0);
  let r =
    Harness.gryff_dc
      ~env:Harness.Env.(default |> with_failover true)
      ~mode:Gryff.Config.Rsc ~service_time_us:10 ~n_clients:8 ~conflict:0.2
      ~write_ratio:0.4 ~n_keys:200 ~duration_s:0.5 ~seed:5 ()
  in
  Alcotest.(check bool)
    "gryff_dc failover: requests go through the retransmitting RPC layer" true
    (Harness.Run.counter r "failover.rpc_calls" > 0)

let suites =
  [
    ( "driver.env",
      [
        Alcotest.test_case "single-DC presets honour failover and disk faults"
          `Quick test_dc_presets_honour_env;
      ] );
    ( "driver.golden",
      List.map
        (fun (name, golden, f) ->
          Alcotest.test_case name `Quick (fun () ->
              check string (name ^ " digest") golden (f ())))
        pins );
  ]

