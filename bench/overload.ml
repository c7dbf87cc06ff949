(* Overload & gray-failure robustness suite.

   Two experiments, both machine-readable (default BENCH_overload.json):

   1. Offered-load ramp (spanner, open system). Partly-open Retwis
      sessions arrive at a ramp of rates against a 4-shard deployment with
      a real per-message server cost. The *control* runs bare: past the
      saturation knee the backlog grows without bound and goodput
      (completions within the client deadline) collapses. The *protected*
      runs with the full overload stack — deadline propagation with
      expired-work drops, bounded queues with load shedding, and a
      fleet-wide retry budget — and must sustain most of its peak goodput
      at twice the knee.

   2. Hedged reads under a slow-node gray failure (gryff, WAN). The
      slow-node nemesis degrades one site (station slowdown + link delay,
      no crash). A bare-quorum fan-out strands its read tail behind the
      victim; the hedged policy re-widens the fan-out after a short delay
      and must cut read p99 by at least 3x.

   Protected/hedged runs verify their histories online; a consistency
   failure fails the suite. A protected run is repeated to prove the
   whole stack is deterministic.

     dune exec bench/overload.exe --              # full sizes, ~1 min
     dune exec bench/overload.exe -- --smoke      # CI sizes

   Exit status 1 on: any online-checked verification failure, control
   collapse not observed, protected goodput floor missed, hedge ratio
   missed (full runs only), sheds observed with protections off, or a
   repeat-determinism mismatch. *)

let verdict_name = function
  | Harness.Run.Pass -> "pass"
  | Harness.Run.Fail _ -> "fail"
  | Harness.Run.Unknown _ -> "unknown"

let verdict_detail = function
  | Harness.Run.Pass -> ""
  | Harness.Run.Fail m | Harness.Run.Unknown m -> m

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type measured = {
  completed : int;  (* post-warm-up completions (all recorders) *)
  good : int;  (* completions within the client deadline *)
  goodput_tps : float;
  p50_ms : float option;
  p99_ms : float option;
  shed : int;
  expired : int;
  abandoned : int;
  budget_denied : int;
  hedges : int;
  hedge_wins : int;
  verdict : string;
  detail : string;
}

(* Completions within [deadline_us], across every latency recorder. The
   recorders only hold post-warm-up completions, so this is the goodput
   numerator directly; abandoned operations never complete and never
   appear. *)
let count_good r ~deadline_us =
  List.fold_left
    (fun (n_all, n_good) (_, rec_) ->
      let a = Stats.Recorder.to_sorted_array rec_ in
      let good = ref 0 in
      Array.iter (fun l -> if l <= deadline_us then incr good) a;
      (n_all + Array.length a, n_good + !good))
    (0, 0)
    r.Harness.Run.latencies

let measure ~deadline_us ~measured_s (r : Harness.Run.t) =
  let completed, good = count_good r ~deadline_us in
  let merged =
    List.fold_left
      (fun acc (_, rec_) -> Stats.Recorder.merge acc rec_)
      (Stats.Recorder.create ()) r.Harness.Run.latencies
  in
  {
    completed;
    good;
    goodput_tps = float_of_int good /. measured_s;
    p50_ms = Stats.Recorder.percentile_ms_opt merged 50.0;
    p99_ms = Stats.Recorder.percentile_ms_opt merged 99.0;
    shed = Harness.Run.counter r "flow.shed";
    expired = Harness.Run.counter r "flow.expired";
    abandoned = Harness.Run.counter r "flow.abandoned";
    budget_denied = Harness.Run.counter r "flow.budget.denied";
    hedges = Harness.Run.counter r "flow.hedges";
    hedge_wins = Harness.Run.counter r "flow.hedge_wins";
    verdict = verdict_name r.Harness.Run.check;
    detail = verdict_detail r.Harness.Run.check;
  }

(* A canonical digest of a run's observable outcome: every completion
   latency plus the counters the suite gates on. Two runs of the same
   configuration must produce the same digest — the whole protection
   stack draws no randomness of its own. *)
let run_digest (r : Harness.Run.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, rec_) ->
      Buffer.add_string b name;
      Array.iter
        (fun l -> Buffer.add_string b (string_of_int l ^ ","))
        (Stats.Recorder.to_sorted_array rec_))
    r.Harness.Run.latencies;
  List.iter
    (fun k -> Buffer.add_string b (Printf.sprintf "%s=%d;" k (Harness.Run.counter r k)))
    [
      "flow.shed"; "flow.expired"; "flow.abandoned"; "flow.budget.denied";
      "net.messages"; "rw.committed"; "ro.count";
    ];
  Buffer.add_string b (string_of_int r.Harness.Run.duration_us);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Experiment 1: offered-load ramp                                     *)
(* ------------------------------------------------------------------ *)

(* Open-system deployment: 4 shards in one DC with a 15 us per-message
   service cost, partly-open Retwis sessions. The knee sits where the
   busiest shard leader's station saturates. *)
let ramp_config ~mode =
  Spanner.Config.single_dc ~mode ~n_shards:4 ~service_time_us:15 ()

let ramp_deadline_us = 25_000

let ramp_protection =
  {
    Chaos.Driver.flow_default with
    Chaos.Driver.fl_admission =
      Some { Sim.Station.max_queue = 256; max_sojourn_us = 8_000 };
    fl_drop_expired = true;
    fl_budget = Some (64, 2_000);
  }

let ramp_run ~protected ~rate ~duration_s ~seed =
  let env =
    if protected then
      Harness.Env.(
        default |> with_check `Online
        |> with_deadline_us (Some ramp_deadline_us)
        |> with_flow (Some ramp_protection))
    else Harness.Env.(default |> with_check `No_check)
  in
  Harness.spanner_wan
    ~config:(Some (ramp_config ~mode:Spanner.Config.Rss))
    ~env ~mode:Spanner.Config.Rss ~theta:0.3 ~n_keys:4000
    ~arrival_rate_per_sec:rate ~duration_s ~seed ()

(* ------------------------------------------------------------------ *)
(* Experiment 2: hedged reads under a slow node                        *)
(* ------------------------------------------------------------------ *)

let hedge_us = 15_000

(* The slow-node preset draws 20-80 ms of link lag — a nuisance next to
   this deployment's WAN round trips. Amplify the lag component so the
   victim is decisively gray (seconds of lag, still alive), which is the
   regime hedging exists for; the slowdown windows and victim choice stay
   exactly the preset's. *)
let amplify_lag ev =
  match ev.Chaos.Schedule.fault with
  | Chaos.Schedule.Delay { links; extra_us } ->
    {
      ev with
      Chaos.Schedule.fault =
        Chaos.Schedule.Delay { links; extra_us = extra_us * 20 };
    }
  | _ -> ev

let hedge_run ~fanout ~duration_s ~seed =
  let schedule =
    Chaos.Audit.nemesis_schedule Chaos.Audit.Gryff_rsc Chaos.Nemesis.Slow_node
      ~duration_s ~seed
    |> List.map amplify_lag
  in
  (* Clients run off the victims: hedging recovers a *server-side* tail —
     a client whose own links lag is slow no matter whom it asks. The
     preset may open more than one slowdown window, each with its own
     victim, so every slowed site is excluded. *)
  let victims =
    List.filter_map
      (fun ev ->
        match ev.Chaos.Schedule.fault with
        | Chaos.Schedule.Slow { site; _ } -> Some site
        | _ -> None)
      schedule
  in
  let client_sites =
    Array.of_list (List.filter (fun s -> not (List.mem s victims)) [ 0; 1; 2; 3; 4 ])
  in
  let flow =
    {
      Chaos.Driver.flow_default with
      Chaos.Driver.fl_gryff_fanout = Some fanout;
      fl_hedge_us = hedge_us;
    }
  in
  let env =
    Harness.Env.(
      default |> with_check `Online |> with_chaos schedule
      |> with_flow (Some flow))
  in
  Harness.gryff_wan ~client_sites ~env ~mode:Gryff.Config.Rsc ~conflict:0.05
    ~write_ratio:0.2 ~n_keys:50_000 ~duration_s ~seed ()

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

let json_float_opt = function None -> "null" | Some f -> json_float f

let measured_json b m =
  Printf.bprintf b
    "{\"completed\": %d, \"good\": %d, \"goodput_tps\": %s, \"p50_ms\": %s, \
     \"p99_ms\": %s, \"shed\": %d, \"expired\": %d, \"abandoned\": %d, \
     \"budget_denied\": %d, \"hedges\": %d, \"hedge_wins\": %d, \
     \"verdict\": \"%s\", \"detail\": \"%s\"}"
    m.completed m.good (json_float m.goodput_tps) (json_float_opt m.p50_ms)
    (json_float_opt m.p99_ms) m.shed m.expired m.abandoned m.budget_denied
    m.hedges m.hedge_wins m.verdict (json_escape m.detail)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let smoke = ref false in
  let out = ref "BENCH_overload.json" in
  let seed = ref 42 in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " CI sizes (seconds, not minutes)");
      ("--out", Arg.Set_string out, "FILE output path (default BENCH_overload.json)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "overload [--smoke] [--out FILE] [--seed N]";
  let failed = ref false in
  let fail fmt = Printf.ksprintf (fun m -> Printf.printf "   %s\n%!" m; failed := true) fmt in
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "{\n  \"schema\": \"rss-repro/overload/v1\",\n  \"smoke\": %b,\n  \
     \"seed\": %d,\n"
    !smoke !seed;

  (* --- Experiment 1: offered-load ramp --- *)
  let duration_s = if !smoke then 2.0 else 5.0 in
  let measured_s = duration_s *. 0.9 in
  (* Rates in sessions/s; a session issues ~10 Retwis transactions. The
     knee of this deployment sits at the third point; the last point is
     twice that. *)
  let rates = [ 1_400.0; 2_200.0; 2_800.0; 5_600.0 ] in
  Printf.printf "== offered-load ramp (spanner, %g simulated s/point) ==\n%!"
    duration_s;
  let points =
    List.map
      (fun rate ->
        let control =
          measure ~deadline_us:ramp_deadline_us ~measured_s
            (ramp_run ~protected:false ~rate ~duration_s ~seed:!seed)
        in
        let protected_ =
          measure ~deadline_us:ramp_deadline_us ~measured_s
            (ramp_run ~protected:true ~rate ~duration_s ~seed:!seed)
        in
        Printf.printf
          "   rate %6.0f/s  control %8.0f good tps (p99 %s ms)   protected \
           %8.0f good tps  shed %d expired %d verdict=%s\n%!"
          rate control.goodput_tps
          (match control.p99_ms with
          | Some p -> Printf.sprintf "%.1f" p
          | None -> "n/a")
          protected_.goodput_tps protected_.shed protected_.expired
          protected_.verdict;
        (rate, control, protected_))
      rates
  in
  let peak =
    List.fold_left (fun acc (_, c, _) -> Float.max acc c.goodput_tps) 0.0 points
  in
  let _, top_control, top_protected =
    List.nth points (List.length points - 1)
  in
  let control_min_frac = top_control.goodput_tps /. Float.max 1e-9 peak in
  let protected_top_frac = top_protected.goodput_tps /. Float.max 1e-9 peak in
  let control_collapse = control_min_frac < 0.40 in
  let control_sheds =
    List.fold_left (fun acc (_, c, _) -> acc + c.shed + c.expired) 0 points
  in
  let protected_verdicts_pass =
    List.for_all (fun (_, _, p) -> p.verdict = "pass") points
  in
  Printf.printf
    "   peak %8.0f good tps; control at top rate %.0f%%; protected at top \
     rate %.0f%%\n%!"
    peak (control_min_frac *. 100.0)
    (protected_top_frac *. 100.0);
  if not control_collapse then
    fail "NO COLLAPSE: control kept %.0f%% of peak goodput at top rate"
      (control_min_frac *. 100.0);
  if protected_top_frac < 0.70 then
    fail "GOODPUT FLOOR MISSED: protected %.0f%% of peak at top rate < 70%%"
      (protected_top_frac *. 100.0);
  if control_sheds <> 0 then
    fail "UNARMED SHEDS: %d sheds/expiries with protections off" control_sheds;
  if not protected_verdicts_pass then
    fail "CONSISTENCY FAILURE in a protected ramp run";
  Printf.bprintf b
    "  \"ramp\": {\n    \"deadline_us\": %d,\n    \"rates\": [%s],\n    \
     \"points\": [\n"
    ramp_deadline_us
    (String.concat ", " (List.map (fun r -> json_float r) rates));
  List.iteri
    (fun i (rate, c, p) ->
      Printf.bprintf b "      {\"rate\": %s, \"control\": " (json_float rate);
      measured_json b c;
      Buffer.add_string b ", \"protected\": ";
      measured_json b p;
      Printf.bprintf b "}%s\n" (if i < List.length points - 1 then "," else ""))
    points;
  Printf.bprintf b
    "    ],\n    \"peak_goodput_tps\": %s,\n    \"control_min_frac\": %s,\n    \
     \"control_collapse\": %b,\n    \"protected_top_frac\": %s,\n    \
     \"protected_ok\": %b,\n    \"control_sheds\": %d,\n    \
     \"protected_verdicts_pass\": %b\n  },\n"
    (json_float peak) (json_float control_min_frac) control_collapse
    (json_float protected_top_frac)
    (protected_top_frac >= 0.70)
    control_sheds protected_verdicts_pass;

  (* --- Experiment 2: hedged reads under a slow node --- *)
  let hduration_s = if !smoke then 8.0 else 20.0 in
  Printf.printf "== hedged reads under slow-node (gryff, %g simulated s) ==\n%!"
    hduration_s;
  let unhedged =
    hedge_run ~fanout:Gryff.Protocol.Fan_quorum ~duration_s:hduration_s
      ~seed:!seed
  in
  let hedged =
    hedge_run ~fanout:Gryff.Protocol.Hedged ~duration_s:hduration_s ~seed:!seed
  in
  let read_p99 r = Stats.Recorder.percentile_ms_opt (Harness.Run.latency r "read") 99.0 in
  let un_p99 = read_p99 unhedged and h_p99 = read_p99 hedged in
  let ratio =
    match (un_p99, h_p99) with
    | Some u, Some h when h > 0.0 -> u /. h
    | _ -> nan
  in
  let hedges = Harness.Run.counter hedged "flow.hedges" in
  let hedge_wins = Harness.Run.counter hedged "flow.hedge_wins" in
  let hedge_verdicts_pass =
    Harness.Run.passed unhedged && Harness.Run.passed hedged
  in
  Printf.printf
    "   read p99: bare quorum %s ms, hedged %s ms (%.1fx); %d hedges, %d \
     wins; verdicts %s/%s\n%!"
    (match un_p99 with Some p -> Printf.sprintf "%.1f" p | None -> "n/a")
    (match h_p99 with Some p -> Printf.sprintf "%.1f" p | None -> "n/a")
    ratio hedges hedge_wins
    (verdict_name unhedged.Harness.Run.check)
    (verdict_name hedged.Harness.Run.check);
  if Float.is_nan ratio || ratio < 3.0 then
    fail "HEDGE RATIO MISSED: bare-quorum p99 only %.1fx the hedged p99" ratio;
  if hedges = 0 || hedge_wins = 0 then
    fail "HEDGING INERT: %d hedges, %d wins" hedges hedge_wins;
  if not hedge_verdicts_pass then
    fail "CONSISTENCY FAILURE in a slow-node hedging run";
  Printf.bprintf b
    "  \"hedge\": {\n    \"preset\": \"slow-node\",\n    \"hedge_us\": %d,\n    \
     \"unhedged_p99_ms\": %s,\n    \"hedged_p99_ms\": %s,\n    \"ratio\": \
     %s,\n    \"hedges\": %d,\n    \"hedge_wins\": %d,\n    \
     \"verdicts_pass\": %b,\n    \"ok\": %b\n  },\n"
    hedge_us (json_float_opt un_p99) (json_float_opt h_p99) (json_float ratio)
    hedges hedge_wins hedge_verdicts_pass
    ((not (Float.is_nan ratio)) && ratio >= 3.0);

  (* --- Repeat determinism --- *)
  let det_rate = List.nth rates (List.length rates - 1) in
  let digest_of () =
    run_digest (ramp_run ~protected:true ~rate:det_rate ~duration_s ~seed:!seed)
  in
  let d1 = digest_of () in
  let d2 = digest_of () in
  Printf.printf "== repeat determinism ==\n   %s %s %s\n%!" d1
    (if d1 = d2 then "==" else "!=")
    d2;
  if d1 <> d2 then fail "NON-DETERMINISM: protected run digests differ";
  Printf.bprintf b
    "  \"determinism\": {\"digest_a\": \"%s\", \"digest_b\": \"%s\", \"ok\": \
     %b},\n  \"failed\": %b\n}\n"
    d1 d2 (d1 = d2) !failed;

  let oc = open_out !out in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out;
  if !failed then exit 1
