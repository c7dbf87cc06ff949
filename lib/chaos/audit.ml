type protocol = Spanner_strict | Spanner_rss | Gryff_lin | Gryff_rsc

let protocols = [ Spanner_strict; Spanner_rss; Gryff_lin; Gryff_rsc ]

let protocol_name = function
  | Spanner_strict -> "spanner"
  | Spanner_rss -> "spanner-rss"
  | Gryff_lin -> "gryff"
  | Gryff_rsc -> "gryff-rsc"

let protocol_of_string = function
  | "spanner" -> Some Spanner_strict
  | "spanner-rss" -> Some Spanner_rss
  | "gryff" -> Some Gryff_lin
  | "gryff-rsc" -> Some Gryff_rsc
  | _ -> None

let model_name = function
  | Spanner_strict -> "strict serializability"
  | Spanner_rss -> "RSS"
  | Gryff_lin -> "linearizability (per key)"
  | Gryff_rsc -> "RSC (per key)"

let protocol_sites = function
  | Spanner_strict | Spanner_rss -> 3 (* wan3 *)
  | Gryff_lin | Gryff_rsc -> 5 (* wan5 *)

let protocol_epsilon_us = function
  | Spanner_strict | Spanner_rss -> 10_000
  | Gryff_lin | Gryff_rsc -> 0

let protocol_leader_sites = function
  | Spanner_strict | Spanner_rss -> [ 0; 1; 2 ] (* wan3: one leader per site *)
  | Gryff_lin | Gryff_rsc -> [] (* leaderless *)

let nemesis_schedule protocol preset ~duration_s ~seed =
  Nemesis.generate preset ~n_sites:(protocol_sites protocol)
    ~leaders:(protocol_leader_sites protocol)
    ~epsilon_us:(protocol_epsilon_us protocol)
    ~duration_us:(Sim.Engine.sec duration_s) ~seed ()

type disk_faults = Driver.disk_faults = {
  df_spec : Sim.Durable.Faults.spec;
  df_seed : int;
  df_scrub_period_us : int;
  df_integrity : bool;
}

let default_disk_faults = Driver.default_disk_faults

(* The raw per-protocol history, exposed so callers (the schedule explorer
   in particular) can re-judge a run with [Rss_core.Check_online] or other
   oracles without re-executing the simulation. *)
type records =
  | Spanner_records of Rss_core.Witness.txn array
  | Gryff_records of Gryff.Cluster.record array

type run = {
  protocol : protocol;
  check : (unit, string) result;
  records : records;
  stale_control : unit -> (unit, string) result option;
  trace : string;
  metrics : Obs.Metrics.snapshot;
  ops_completed : int;
  ops_timed_out : int;
  msgs_sent : int;
  duration_us : int;
  view_changes : int;
  aborted_attempts : int;
}

let counter r name = Obs.Metrics.counter_value r.metrics name

module W = Rss_core.Witness

(* ------------------------------------------------------------------ *)
(* Canonical traces and stale-read controls                            *)
(* ------------------------------------------------------------------ *)

let spanner_trace records =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (w : Rss_core.Witness.txn) ->
      Buffer.add_string buf
        (Fmt.str "p%d inv=%d resp=%d ts=%d rank=%d R%a W%a\n"
           w.Rss_core.Witness.proc w.Rss_core.Witness.inv w.Rss_core.Witness.resp
           w.Rss_core.Witness.ts w.Rss_core.Witness.rank
           Fmt.(Dump.list (Dump.pair string (Dump.option int)))
           w.Rss_core.Witness.reads
           Fmt.(Dump.list (Dump.pair string int))
           w.Rss_core.Witness.writes))
    records;
  Buffer.contents buf

let gryff_trace records =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (r : Gryff.Cluster.record) ->
      Buffer.add_string buf
        (Fmt.str "p%d %s k%d obs=%a wr=%a cs=%a inv=%d resp=%d\n" r.Gryff.Cluster.g_proc
           (match r.Gryff.Cluster.g_kind with
           | Gryff.Cluster.Read -> "r"
           | Gryff.Cluster.Write -> "w"
           | Gryff.Cluster.Rmw -> "m")
           r.Gryff.Cluster.g_key
           Fmt.(Dump.option int)
           r.Gryff.Cluster.g_observed
           Fmt.(Dump.option int)
           r.Gryff.Cluster.g_written Gryff.Carstamp.pp r.Gryff.Cluster.g_cs
           r.Gryff.Cluster.g_inv r.Gryff.Cluster.g_resp))
    records;
  Buffer.contents buf

(* The audit's control proving the checker has teeth: corrupt the first
   read [read] exposes (an acknowledged op's, as [(key, observed)]) to the
   version written just before the one it saw — or, when there is none, to
   a value nobody wrote, illegal in any serialization — and re-check with
   [check]. [writes] lists an op's [(key, order, value)] writes; [order]
   ranks versions of a key. *)
let stale_control ~writes ~order ~read ~corrupt ~check records =
  let by_key = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      List.iter
        (fun (k, o, v) ->
          let prev = Option.value (Hashtbl.find_opt by_key k) ~default:[] in
          Hashtbl.replace by_key k ((o, v) :: prev))
        (writes r))
    records;
  let phantom =
    1
    + Hashtbl.fold
        (fun _ ws acc -> List.fold_left (fun acc (_, v) -> max acc v) acc ws)
        by_key 0
  in
  let stale k = function
    | None -> phantom
    | Some v ->
      let rec walk prev = function
        | (_, v') :: _ when v' = v -> prev
        | (_, v') :: rest -> walk (Some v') rest
        | [] -> None
      in
      let ws = Option.value (Hashtbl.find_opt by_key k) ~default:[] in
      match walk None (List.stable_sort (fun (a, _) (b, _) -> order a b) ws) with
      | Some v' when v' <> v -> v'
      | _ -> phantom
  in
  let rec first i =
    if i = Array.length records then None
    else
      match read records.(i) with
      | Some (k, ov) ->
        let records = Array.copy records in
        records.(i) <- corrupt records.(i) (stale k ov);
        Some (check records)
      | None -> first (i + 1)
  in
  first 0

let spanner_stale_control ~mode =
  stale_control
    ~writes:(fun (w : W.txn) -> List.map (fun (k, v) -> (k, w.W.ts, v)) w.W.writes)
    ~order:Int.compare
    ~read:(fun (w : W.txn) ->
      match w.W.reads with
      | r :: _ when w.W.resp <> max_int -> Some r
      | _ -> None)
    ~corrupt:(fun (w : W.txn) v ->
      { w with W.reads = (fst (List.hd w.W.reads), Some v) :: List.tl w.W.reads })
    ~check:(W.check ~mode)

let gryff_stale_control ~mode =
  let open Gryff.Cluster in
  stale_control
    ~writes:(fun r ->
      match r.g_written with Some v -> [ (r.g_key, r.g_cs, v) ] | None -> [])
    ~order:Gryff.Carstamp.compare
    ~read:(fun r ->
      if r.g_kind = Read && r.g_resp <> max_int then Some (r.g_key, r.g_observed)
      else None)
    ~corrupt:(fun r v -> { r with g_observed = Some v })
    ~check:(fun rs -> check_records mode (Array.to_list rs))

(* ------------------------------------------------------------------ *)
(* Running an audit                                                    *)
(* ------------------------------------------------------------------ *)

let of_run protocol (r : Driver.Run.t) =
  let records =
    match r.Driver.Run.records with
    | Driver.Run.Spanner_txns a -> Spanner_records a
    | Driver.Run.Gryff_ops a -> Gryff_records a
  in
  let counter = Driver.Run.counter r in
  let m = r.Driver.Run.metrics in
  let latency = Driver.Run.latency r "ops" in
  {
    protocol;
    check =
      (match r.Driver.Run.check with
      | Driver.Run.Pass -> Ok ()
      | Driver.Run.Fail e | Driver.Run.Unknown e -> Error e);
    records;
    stale_control =
      (fun () ->
        match (records, protocol) with
        | Spanner_records a, Spanner_strict -> spanner_stale_control ~mode:`Strict a
        | Spanner_records a, _ -> spanner_stale_control ~mode:`Rss a
        | Gryff_records a, Gryff_lin -> gryff_stale_control ~mode:Gryff.Config.Lin a
        | Gryff_records a, _ -> gryff_stale_control ~mode:Gryff.Config.Rsc a);
    trace =
      (match records with
      | Spanner_records a -> spanner_trace a
      | Gryff_records a -> gryff_trace a);
    (* Gauges go: the only one an audit sets is the checker's wall time,
       and the report must print the same bytes on every run. *)
    metrics =
      {
        m with
        Obs.Metrics.gauges = [];
        histograms =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            ((if Stats.Recorder.is_empty latency then []
              else [ ("ops", latency) ])
            @ m.Obs.Metrics.histograms);
      };
    ops_completed = counter "op.completed";
    ops_timed_out = counter "op.timed_out";
    msgs_sent = counter "net.messages";
    duration_us = r.Driver.Run.duration_us;
    view_changes = counter "failover.view_changes";
    aborted_attempts = counter "rw.aborted_attempts";
  }

let run protocol ?(tracer = Obs.Trace.disabled) ?prepare ~schedule ?disk_faults
    ?n_slots ?n_keys ?(timeout_us = 2_000_000) ?(conflict = 0.1)
    ?(write_ratio = 0.3) ?(unsafe_no_deps = false) ?(failover = false)
    ?(n_migrations = 0) ~duration_s ~seed () =
  let env =
    {
      Driver.Env.default with
      chaos = Some schedule;
      disk_faults;
      failover;
      trace = tracer;
    }
  in
  let r =
    match protocol with
    | Spanner_strict | Spanner_rss ->
      let mode =
        if protocol = Spanner_strict then Spanner.Config.Strict
        else Spanner.Config.Rss
      in
      let config = Spanner.Config.wan3 ~mode () in
      let n_keys = Option.value n_keys ~default:5_000 in
      (* Live migrations of the Zipfian head — the hottest eighth of the
         keyspace — spread over the run, each to a different shard. *)
      let reshard =
        List.init n_migrations (fun i ->
            {
              Driver.rs_at = 0.30 +. (0.25 *. float_of_int i);
              rs_lo = 0;
              rs_hi = max 1 (n_keys / 8);
              rs_dst = (i + 1) mod config.Spanner.Config.n_shards;
              rs_no_fence = false;
            })
      in
      Driver.spanner ?prepare
        {
          (Driver.spanner_deployment config ~theta:0.5 ~n_keys) with
          Driver.sp_reshard = reshard;
        }
        (Driver.Slots { n_slots = Option.value n_slots ~default:12; timeout_us })
        env ~duration_s ~seed
    | Gryff_lin | Gryff_rsc ->
      let mode =
        if protocol = Gryff_lin then Gryff.Config.Lin else Gryff.Config.Rsc
      in
      Driver.gryff ?prepare
        {
          (Driver.gryff_deployment (Gryff.Config.wan5 ~mode ()) ~conflict
             ~write_ratio
             ~n_keys:(Option.value n_keys ~default:2_000)) with
          Driver.gr_unsafe_no_deps = unsafe_no_deps;
        }
        (Driver.Slots { n_slots = Option.value n_slots ~default:10; timeout_us })
        env ~duration_s ~seed
  in
  of_run protocol r

let liveness_ok ?(min_post_quiet = 1) r =
  counter r "op.post_heal_completed" >= min_post_quiet

let print_report r =
  Fmt.pr "chaos audit: %s — model: %s@." (protocol_name r.protocol)
    (model_name r.protocol);
  Obs.Metrics.print_table ~header:"chaos audit" r.metrics;
  Driver.Run.print_history ~model:(model_name r.protocol)
    (Driver.Run.verdict_of_result r.check);
  Fmt.pr "liveness: %s (%d ops completed after heal)@."
    (if liveness_ok r then "ok" else "STALLED")
    (counter r "op.post_heal_completed");
  let c = counter r in
  if c "durable.fault.crashes" > 0 || c "durable.repair.unrepaired" > 0 then
    Fmt.pr
      "storage: %d crash-damage events — %d torn-tail repairs, %d quarantined \
       (%d healed by peer transfer, %d place re-persists), %d UNREPAIRED@."
      (c "durable.fault.crashes") (c "durable.repair.torn")
      (c "durable.repair.quarantined") (c "durable.repair.peer")
      (c "durable.repair.place") (c "durable.repair.unrepaired")
