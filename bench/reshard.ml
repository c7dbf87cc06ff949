(* Live-reshard section: migrate the Zipfian-hot eighth of the keyspace
   to another shard mid-workload and measure what elasticity costs.

   Four seeded runs over the §6.1 WAN deployment (Spanner-RSS, theta 0.9 so
   the moved range really is hot), all online-checked:

     baseline   -- no migration; the latency/verdict reference
     reshard    -- one fenced two-phase migration at 45% of the run
     reshard(2) -- the same run again; its history digest must match run 2
                   byte for byte (migration machinery must stay inside the
                   deterministic schedule)
     no-fence   -- the unsafe mutation control: the same migration with the
                   t_m fence/drain/barrier skipped. Writes committing at the
                   source during the ship window are missing at the
                   destination, and the online checker must flag the
                   resulting stale read.

     dune exec bench/suite.exe -- reshard           # full size, ~1 min
     dune exec bench/suite.exe -- --smoke reshard   # CI size, a few seconds

   Gates: every run did work, baseline and reshard pass the checker, the
   migration completes (>= 1 completed, 0 failed, keys actually moved, the
   epoch bumped) and bounced stale clients, the repeated run is
   byte-identical, and the no-fence control fails. *)

type measured = {
  name : string;
  verdict : string;
  detail : string;
  digest : string;  (* MD5 of the marshalled history: determinism witness *)
  n_ops : int;
  sim_s : float;
  cpu_s : float;
  latencies : (string * float) list;  (* ro/rw p50/p99, in us *)
  place : (string * int) list;  (* [place_fields], in order *)
}

(* Report fields, each the run's counter "place.<field>". *)
let place_fields =
  [ "epoch"; "migrations"; "migrations_failed"; "migration_retries";
    "keys_moved"; "redirects"; "fence_blocked"; "fence_hold_us";
    "max_fence_hold_us"; "directory_appends" ]

let get m field = List.assoc field m.place

let history_digest (r : Harness.Run.t) =
  match r.Harness.Run.records with
  | Harness.Run.Spanner_txns a -> Digest.to_hex (Digest.string (Marshal.to_string a []))
  | Harness.Run.Gryff_ops a -> Digest.to_hex (Digest.string (Marshal.to_string a []))

let pct rec_ p =
  match Stats.Recorder.percentile_opt rec_ p with Some v -> v | None -> 0.0

let measure ~name ~reshard ~theta ~n_keys ~rate ~duration_s ~seed =
  let t0 = Sys.time () in
  let r =
    Chaos.Driver.spanner
      {
        (Chaos.Driver.spanner_deployment
           (Spanner.Config.wan3 ~mode:Spanner.Config.Rss ())
           ~theta ~n_keys) with
        Chaos.Driver.sp_reshard = reshard;
      }
      (Chaos.Driver.Partly_open { rate; stay = 0.9 })
      Harness.Env.(default |> with_check `Online)
      ~duration_s ~seed
  in
  let cpu_s = Sys.time () -. t0 in
  {
    name;
    verdict = Section.verdict_name r.Harness.Run.check;
    detail = Section.verdict_detail r.Harness.Run.check;
    digest = history_digest r;
    n_ops = Harness.Run.n_records r;
    sim_s = Sim.Engine.to_sec r.Harness.Run.duration_us;
    cpu_s;
    latencies =
      List.concat_map
        (fun kind ->
          let rec_ = Harness.Run.latency r kind in
          [ (kind ^ "_p50_us", pct rec_ 50.0); (kind ^ "_p99_us", pct rec_ 99.0) ])
        [ "ro"; "rw" ];
    place = List.map (fun f -> (f, Harness.Run.counter r ("place." ^ f))) place_fields;
  }

let measured_json m =
  Obs.Json.(
    Obj
      ([
         ("name", Str m.name);
         ("verdict", Str m.verdict);
         ("detail", Str m.detail);
         ("digest", Str m.digest);
         ("n_ops", int m.n_ops);
         ("sim_s", Num m.sim_s);
         ("cpu_s", Num m.cpu_s);
       ]
      @ List.map (fun (k, v) -> (k, Num v)) m.latencies
      @ List.map (fun (k, v) -> (k, int v)) m.place))

(* ------------------------------------------------------------------ *)
(* Section                                                             *)
(* ------------------------------------------------------------------ *)

let run ~smoke : Section.t =
  let seed = Section.seed in
  let n_keys = if smoke then 4_000 else 20_000 in
  let duration_s = if smoke then 6.0 else 20.0 in
  let rate = if smoke then 60.0 else 120.0 in
  let theta = 0.9 in
  let hot_hi = n_keys / 8 in
  let spec no_fence =
    [
      {
        Chaos.Driver.rs_at = 0.45;
        rs_lo = 0;
        rs_hi = hot_hi;
        rs_dst = 1;
        rs_no_fence = no_fence;
      };
    ]
  in
  Printf.printf "== reshard bench (hot range [0,%d) of %d keys, %.0f sim-s) ==\n%!"
    hot_hi n_keys duration_s;
  let run name reshard =
    let m = measure ~name ~reshard ~theta ~n_keys ~rate ~duration_s ~seed in
    Printf.printf
      "   %-10s verdict=%-7s ops=%6d  migrations=%d/%d  keys=%5d  \
       redirects=%4d  fence=%d us (max %d)\n\
       %!"
      m.name m.verdict m.n_ops (get m "migrations")
      (get m "migrations" + get m "migrations_failed")
      (get m "keys_moved") (get m "redirects") (get m "fence_hold_us")
      (get m "max_fence_hold_us");
    m
  in
  let base = run "baseline" [] in
  let live = run "reshard" (spec false) in
  let live2 = run "reshard-2" (spec false) in
  let nofence = run "no-fence" (spec true) in
  let runs = [ base; live; live2; nofence ] in
  let deterministic = live.digest = live2.digest in
  let no_fence_caught = nofence.verdict = "fail" in
  let gates =
    [
      ("runs", List.length runs = 4);
      ("runs_did_work", List.for_all (fun m -> m.n_ops > 0) runs);
      ("baseline_pass", base.verdict = "pass");
      ("reshard_pass", live.verdict = "pass");
      ( "migration_completes",
        get live "migrations" >= 1
        && get live "migrations_failed" = 0
        && get live "keys_moved" > 0
        && get live "epoch" >= 1 );
      ("redirects", get live "redirects" > 0);
      ("deterministic", deterministic);
      ("no_fence_caught", no_fence_caught);
    ]
  in
  let report =
    Obs.Json.(
      Obj
        [
          ("seed", int seed);
          ("n_keys", int n_keys);
          ("hot_range", Arr [ int 0; int hot_hi ]);
          ("runs", Arr (List.map measured_json runs));
          ("deterministic", Bool deterministic);
          ("no_fence_caught", Bool no_fence_caught);
        ])
  in
  (report, gates)
