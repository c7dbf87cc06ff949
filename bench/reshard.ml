(* Live-reshard benchmark: migrate the Zipfian-hot eighth of the keyspace
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

   Output is machine-readable JSON (default BENCH_reshard.json):

     dune exec bench/reshard.exe --             # full size, ~1 min
     dune exec bench/reshard.exe -- --smoke     # CI size, a few seconds

   Exit status 1 unless: baseline and reshard pass the checker, the
   migration completes (>= 1 completed, 0 failed, keys actually moved),
   the repeated run is byte-identical, and the no-fence control fails. *)

let verdict_name = function
  | Harness.Run.Pass -> "pass"
  | Harness.Run.Fail _ -> "fail"
  | Harness.Run.Unknown _ -> "unknown"

let verdict_detail = function
  | Harness.Run.Pass -> ""
  | Harness.Run.Fail m | Harness.Run.Unknown m -> m

type measured = {
  name : string;
  verdict : string;
  detail : string;
  digest : string;  (* MD5 of the marshalled history: determinism witness *)
  n_ops : int;
  sim_s : float;
  cpu_s : float;
  ro_p50_us : float;
  ro_p99_us : float;
  rw_p50_us : float;
  rw_p99_us : float;
  epoch : int;
  migrations : int;
  migrations_failed : int;
  migration_retries : int;
  keys_moved : int;
  redirects : int;
  fence_blocked : int;
  fence_hold_us : int;
  max_fence_hold_us : int;
  directory_appends : int;
}

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
  let c = Harness.Run.counter r in
  let ro = Harness.Run.latency r "ro" and rw = Harness.Run.latency r "rw" in
  ( r,
    {
      name;
      verdict = verdict_name r.Harness.Run.check;
      detail = verdict_detail r.Harness.Run.check;
      digest = history_digest r;
      n_ops = Harness.Run.n_records r;
      sim_s = Sim.Engine.to_sec r.Harness.Run.duration_us;
      cpu_s;
      ro_p50_us = pct ro 50.0;
      ro_p99_us = pct ro 99.0;
      rw_p50_us = pct rw 50.0;
      rw_p99_us = pct rw 99.0;
      epoch = c "place.epoch";
      migrations = c "place.migrations";
      migrations_failed = c "place.migrations_failed";
      migration_retries = c "place.migration_retries";
      keys_moved = c "place.keys_moved";
      redirects = c "place.redirects";
      fence_blocked = c "place.fence_blocked";
      fence_hold_us = c "place.fence_hold_us";
      max_fence_hold_us = c "place.max_fence_hold_us";
      directory_appends = c "place.directory_appends";
    } )

(* ------------------------------------------------------------------ *)
(* JSON emission (hand-rolled; the repo deliberately has no JSON dep)   *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.6f" f

let measured_json b m =
  Printf.bprintf b
    "{\"name\": \"%s\", \"verdict\": \"%s\", \"detail\": \"%s\", \
     \"digest\": \"%s\", \"n_ops\": %d, \"sim_s\": %s, \"cpu_s\": %s, \
     \"ro_p50_us\": %s, \"ro_p99_us\": %s, \"rw_p50_us\": %s, \
     \"rw_p99_us\": %s, \"epoch\": %d, \"migrations\": %d, \
     \"migrations_failed\": %d, \"migration_retries\": %d, \
     \"keys_moved\": %d, \"redirects\": %d, \"fence_blocked\": %d, \
     \"fence_hold_us\": %d, \"max_fence_hold_us\": %d, \
     \"directory_appends\": %d}"
    m.name m.verdict (json_escape m.detail) m.digest m.n_ops
    (json_float m.sim_s) (json_float m.cpu_s) (json_float m.ro_p50_us)
    (json_float m.ro_p99_us) (json_float m.rw_p50_us) (json_float m.rw_p99_us)
    m.epoch m.migrations m.migrations_failed m.migration_retries m.keys_moved
    m.redirects m.fence_blocked m.fence_hold_us m.max_fence_hold_us
    m.directory_appends

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let smoke = ref false in
  let out = ref "BENCH_reshard.json" in
  let seed = ref 42 in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " CI sizes (seconds, not a minute)");
      ( "--out",
        Arg.Set_string out,
        "FILE output path (default BENCH_reshard.json)" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "reshard [--smoke] [--out FILE] [--seed N]";
  let seed = !seed in
  let n_keys = if !smoke then 4_000 else 20_000 in
  let duration_s = if !smoke then 6.0 else 20.0 in
  let rate = if !smoke then 60.0 else 120.0 in
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
  let report m =
    Printf.printf
      "   %-10s verdict=%-7s ops=%6d  migrations=%d/%d  keys=%5d  \
       redirects=%4d  fence=%d us (max %d)\n\
       %!"
      m.name m.verdict m.n_ops m.migrations
      (m.migrations + m.migrations_failed)
      m.keys_moved m.redirects m.fence_hold_us m.max_fence_hold_us
  in
  Printf.printf "== reshard bench (hot range [0,%d) of %d keys, %.0f sim-s) ==\n%!"
    hot_hi n_keys duration_s;
  let _, base =
    measure ~name:"baseline" ~reshard:[] ~theta ~n_keys ~rate ~duration_s ~seed
  in
  report base;
  let _, live =
    measure ~name:"reshard" ~reshard:(spec false) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report live;
  let _, live2 =
    measure ~name:"reshard-2" ~reshard:(spec false) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report live2;
  let _, nofence =
    measure ~name:"no-fence" ~reshard:(spec true) ~theta ~n_keys ~rate
      ~duration_s ~seed
  in
  report nofence;
  let deterministic = live.digest = live2.digest in
  let migrated_ok =
    live.migrations >= 1 && live.migrations_failed = 0 && live.keys_moved >= 1
    && live.epoch >= 1
  in
  let ok =
    base.verdict = "pass" && live.verdict = "pass" && migrated_ok
    && deterministic
    && nofence.verdict = "fail"
  in
  Printf.printf "deterministic: %b   no-fence caught: %b   ok: %b\n%!"
    deterministic
    (nofence.verdict = "fail")
    ok;
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n  \"schema\": \"rss-repro/reshard/v1\",\n  \"smoke\": %b,\n  \
     \"seed\": %d,\n  \"n_keys\": %d,\n  \"hot_range\": [0, %d],\n  \
     \"runs\": [\n"
    !smoke seed n_keys hot_hi;
  List.iteri
    (fun i m ->
      Buffer.add_string b "    ";
      measured_json b m;
      Buffer.add_string b (if i < 3 then ",\n" else "\n"))
    [ base; live; live2; nofence ];
  Printf.bprintf b
    "  ],\n  \"deterministic\": %b,\n  \"no_fence_caught\": %b,\n  \
     \"ok\": %b\n}\n"
    deterministic
    (nofence.verdict = "fail")
    ok;
  let oc = open_out !out in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out;
  if not ok then exit 1
