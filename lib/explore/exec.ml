type input = {
  protocol : Chaos.Audit.protocol;
  preset : Chaos.Nemesis.preset;
  seed : int;
  nemesis_seed : int;
  duration_ms : int;
  n_slots : int;
  n_keys : int;
  timeout_ms : int;
  conflict_pct : int;
  write_pct : int;
  batch_us : int;
  batch_max : int;
  disk_rate_pct : int;
  check_budget : int;
  unsafe : bool;
  perturb : Perturb.t;
}

(* Small hot keyspaces and short runs: contention is what makes races
   (and the seeded-bug control) reachable within a search budget, and a
   trial has to be cheap enough to run hundreds of times. *)
let base protocol =
  let gryff =
    match protocol with
    | Chaos.Audit.Gryff_lin | Chaos.Audit.Gryff_rsc -> true
    | Chaos.Audit.Spanner_strict | Chaos.Audit.Spanner_rss -> false
  in
  {
    protocol;
    preset = Chaos.Nemesis.Partition_heal;
    seed = 1;
    nemesis_seed = 1;
    duration_ms = 1_500;
    n_slots = 8;
    n_keys = (if gryff then 8 else 64);
    timeout_ms = 2_000;
    conflict_pct = 80;
    write_pct = 40;
    batch_us = 0;
    batch_max = 16;
    disk_rate_pct = 0;
    check_budget = 0;
    unsafe = false;
    perturb = Perturb.none;
  }

let validate i =
  let err fmt = Fmt.kstr Result.error fmt in
  if i.duration_ms <= 0 then err "duration_ms must be positive"
  else if i.n_slots <= 0 then err "n_slots must be positive"
  else if i.n_keys <= 0 then err "n_keys must be positive"
  else if i.timeout_ms <= 0 then err "timeout_ms must be positive"
  else if i.conflict_pct < 0 || i.conflict_pct > 100 then
    err "conflict_pct out of [0, 100]"
  else if i.write_pct < 0 || i.write_pct > 100 then
    err "write_pct out of [0, 100]"
  else if i.batch_us < 0 then err "batch_us must be non-negative"
  else if i.batch_us > 0 && i.batch_max <= 0 then
    err "batch_max must be positive when batching is on"
  else if i.disk_rate_pct < 0 then err "disk_rate_pct must be non-negative"
  else if i.check_budget < 0 then err "check_budget must be non-negative"
  else Ok ()

let describe i =
  let tie, jitter = Perturb.to_string i.perturb in
  Fmt.str
    "%s/%s seed=%d nseed=%d dur=%dms slots=%d keys=%d%s%s%s%s%s tie=%s \
     jitter=%s"
    (Chaos.Audit.protocol_name i.protocol)
    (Chaos.Nemesis.preset_name i.preset)
    i.seed i.nemesis_seed i.duration_ms i.n_slots i.n_keys
    (if i.batch_us > 0 then Fmt.str " batch=%dus/%d" i.batch_us i.batch_max
     else "")
    (if i.disk_rate_pct > 0 then Fmt.str " disk=%d%%" i.disk_rate_pct else "")
    (if i.check_budget > 0 then Fmt.str " budget=%d" i.check_budget else "")
    (if i.unsafe then " UNSAFE" else "")
    (match i.protocol with
    | Chaos.Audit.Gryff_lin | Chaos.Audit.Gryff_rsc ->
      Fmt.str " conflict=%d%% write=%d%%" i.conflict_pct i.write_pct
    | _ -> "")
    tie jitter

let equal a b =
  a.protocol = b.protocol && a.preset = b.preset && a.seed = b.seed
  && a.nemesis_seed = b.nemesis_seed
  && a.duration_ms = b.duration_ms
  && a.n_slots = b.n_slots && a.n_keys = b.n_keys
  && a.timeout_ms = b.timeout_ms
  && a.conflict_pct = b.conflict_pct
  && a.write_pct = b.write_pct && a.batch_us = b.batch_us
  && a.batch_max = b.batch_max
  && a.disk_rate_pct = b.disk_rate_pct
  && a.check_budget = b.check_budget && a.unsafe = b.unsafe
  && Perturb.equal a.perturb b.perturb

type outcome = {
  verdict : Rss_core.Check_online.verdict;
  offline_check : (unit, string) result;
  signature : string;
  trace_digest : string;
  checker_work : int;
  checker_displacement : int;
  run : Chaos.Audit.run;
}

let verdict_string = function
  | Rss_core.Check_online.Pass -> "pass"
  | Rss_core.Check_online.Fail m -> "fail: " ^ m
  | Rss_core.Check_online.Unknown m -> "unknown: " ^ m

let is_fail = function Rss_core.Check_online.Fail _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Oracle: re-judge the audit's collected history with Check_online     *)
(* ------------------------------------------------------------------ *)

let witness_mode = function
  | Chaos.Audit.Spanner_strict | Chaos.Audit.Gryff_lin -> `Strict
  | Chaos.Audit.Spanner_rss | Chaos.Audit.Gryff_rsc -> `Rss

let make_checker ~mode ~check_budget =
  if check_budget > 0 then
    Rss_core.Check_online.create ~work_budget:check_budget
      ~fallback_states:check_budget ~mode ()
  else Rss_core.Check_online.create ~mode ()

(* Registers are per-key: carstamp order is only meaningful within a key,
   so each key gets its own online checker (as in the driver). Keys
   are settled in sorted order so the combined verdict — in particular
   which key a Fail message names — is canonical. *)
let judge ~protocol ~check_budget records =
  let mode = witness_mode protocol in
  match records with
  | Chaos.Audit.Spanner_records arr ->
    let oc = make_checker ~mode ~check_budget in
    Array.iter (Rss_core.Check_online.add oc) arr;
    ( Rss_core.Check_online.result oc,
      Rss_core.Check_online.work oc,
      Rss_core.Check_online.max_displacement oc )
  | Chaos.Audit.Gryff_records arr ->
    let add, settled =
      Chaos.Driver.keyed_checkers (fun () -> make_checker ~mode ~check_budget)
    in
    Array.iter
      (fun (r : Gryff.Cluster.record) ->
        add r.Gryff.Cluster.g_key (Chaos.Driver.gryff_witness_txn r))
      arr;
    List.fold_left
      (fun (verdict, work, disp) (key, oc) ->
        let work = work + Rss_core.Check_online.work oc in
        let disp = max disp (Rss_core.Check_online.max_displacement oc) in
        let verdict =
          match verdict with
          | Rss_core.Check_online.Fail _ -> verdict
          | Rss_core.Check_online.Pass | Rss_core.Check_online.Unknown _ ->
            Chaos.Driver.combine_keyed verdict
              (key, Rss_core.Check_online.result oc)
        in
        (verdict, work, disp))
      (Rss_core.Check_online.Pass, 0, 0)
      (settled ())

(* ------------------------------------------------------------------ *)
(* Coverage signature                                                  *)
(* ------------------------------------------------------------------ *)

(* Log2 buckets: 0, 1, 2-3, 4-7, ... Counters only need to land in the
   same bucket to count as "the same behaviour"; the signature is the
   dedup key of the search's coverage map. *)
let bucket v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let signature_of_run ~displacement (r : Chaos.Audit.run) =
  let b name = bucket (Chaos.Audit.counter r name) in
  Fmt.str "v%d c%d p%d l%d d%d y%d q%d m%d r%d t%d u%d s%d w%d"
    (b "failover.view_changes") (b "fault.dropped_crash")
    (b "fault.dropped_partition") (b "fault.dropped_loss")
    (b "fault.duplicated") (b "fault.delayed")
    (b "failover.in_doubt_resolved")
    (bucket
       (Chaos.Audit.counter r "place.migrations"
       + Chaos.Audit.counter r "place.migration_retries"))
    (b "place.redirects") (b "op.timed_out") (b "op.unacked_commits_swept")
    (bucket
       (Chaos.Audit.counter r "durable.fault.crashes"
       + Chaos.Audit.counter r "durable.scrub.flagged"))
    (bucket displacement)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let audit ?prepare i =
  let duration_s = float_of_int i.duration_ms /. 1_000.0 in
  let disk_faults =
    if i.disk_rate_pct = 0 then None
    else
      let base =
        Option.value (Chaos.Nemesis.disk_spec i.preset)
          ~default:Sim.Durable.Faults.default_spec
      in
      Some
        (Chaos.Audit.default_disk_faults
           ~spec:
             (Sim.Durable.Faults.scale
                (float_of_int i.disk_rate_pct /. 100.0)
                base)
           ~seed:i.nemesis_seed ())
  in
  Chaos.Audit.run i.protocol ?prepare
    ~schedule:
      (Chaos.Audit.nemesis_schedule i.protocol i.preset ~duration_s
         ~seed:i.nemesis_seed)
    ?disk_faults ~n_slots:i.n_slots ~n_keys:i.n_keys
    ~timeout_us:(i.timeout_ms * 1_000)
    ~conflict:(float_of_int i.conflict_pct /. 100.0)
    ~write_ratio:(float_of_int i.write_pct /. 100.0)
    ~unsafe_no_deps:i.unsafe
    ~failover:(Chaos.Nemesis.requires_failover i.preset)
    ~n_migrations:(if Chaos.Nemesis.requires_reshard i.preset then 2 else 0)
    ~duration_s ~seed:i.seed ()

let run i =
  (match validate i with
  | Ok () -> ()
  | Error m -> invalid_arg ("Explore.Exec.run: " ^ m));
  let run =
    audit i ~prepare:(fun engine net ->
        Perturb.install i.perturb ~engine ~net;
        if i.batch_us > 0 then
          Sim.Net.set_batching net
            (Some
               {
                 Sim.Net.batch_us = i.batch_us;
                 batch_max = i.batch_max;
                 adaptive = false;
               }))
  in
  let verdict, work, displacement =
    judge ~protocol:i.protocol ~check_budget:i.check_budget
      run.Chaos.Audit.records
  in
  let signature =
    (* Protocol and preset belong in the dedup key — the same counter
       buckets under a different fault mix are a different behaviour. *)
    let v =
      match verdict with
      | Rss_core.Check_online.Pass -> "P"
      | Rss_core.Check_online.Fail _ -> "F"
      | Rss_core.Check_online.Unknown _ -> "U"
    in
    Fmt.str "%s|%s|%s|%s"
      (Chaos.Audit.protocol_name i.protocol)
      (Chaos.Nemesis.preset_name i.preset)
      (signature_of_run ~displacement run)
      v
  in
  {
    verdict;
    offline_check = run.Chaos.Audit.check;
    signature;
    trace_digest = Digest.to_hex (Digest.string run.Chaos.Audit.trace);
    checker_work = work;
    checker_displacement = displacement;
    run;
  }
