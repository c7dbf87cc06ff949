(* Schedule-exploration section.

   Three experiments, all seeded and machine-checkable:

     determinism -- the perturbation layer's contract: installing the
                    all-zero vector is byte-identical to never installing
                    it, a non-zero vector actually changes the schedule,
                    and replaying a perturbed input reproduces its digest.
     safe        -- a short coverage-guided search over correct
                    configurations; reports coverage and any (unexpected)
                    failures.
     control     -- the seeded-bug hunt: the same search pointed at the
                    Gryff client with the RSC dependency fence disabled
                    (unsafe_no_deps). The explorer must find a
                    Check_online Fail within budget, shrink it to a
                    cheaper input that still fails, serialize it as a
                    corpus file, and replay that file to the identical
                    verdict twice.

     dune exec bench/suite.exe -- explore                        # full budget, ~2 min
     dune exec bench/suite.exe -- --smoke explore                # CI budget
     dune exec bench/suite.exe -- --smoke --corpus DIR explore   # keep shrunk repros

   Gates: all three determinism checks hold; the safe sweep ran, raised no
   false alarm and saw more than one coverage signature; the control bug
   is found, its shrunk repro still fails and is no costlier than the
   find, its corpus file replays byte-identically twice, and the hunt's
   metrics count the executions, the failure and the saved corpus file. *)

let input_json (i : Explore.Exec.input) =
  let tie, jitter = Explore.Perturb.to_string i.Explore.Exec.perturb in
  Obs.Json.(
    Obj
      [
        ("protocol", Str (Chaos.Audit.protocol_name i.Explore.Exec.protocol));
        ("preset", Str (Chaos.Nemesis.preset_name i.Explore.Exec.preset));
        ("seed", int i.Explore.Exec.seed);
        ("nemesis_seed", int i.Explore.Exec.nemesis_seed);
        ("duration_ms", int i.Explore.Exec.duration_ms);
        ("slots", int i.Explore.Exec.n_slots);
        ("keys", int i.Explore.Exec.n_keys);
        ("batch_us", int i.Explore.Exec.batch_us);
        ("disk_rate_pct", int i.Explore.Exec.disk_rate_pct);
        ("unsafe", Bool i.Explore.Exec.unsafe);
        ("tie", Str tie);
        ("jitter", Str jitter);
        ("cost", int (Explore.Search.cost i));
      ])

let run ~smoke ~corpus_dir : Section.t =
  let t0 = Sys.time () in

  (* --- determinism ------------------------------------------------- *)
  Printf.printf "determinism: perturbation-off identity + replay\n%!";
  let base_in =
    { (Explore.Exec.base Chaos.Audit.Gryff_rsc) with
      Explore.Exec.seed = 11;
      nemesis_seed = 7;
      duration_ms = 1_000 }
  in
  (* The raw audit run, no explorer involved: the reference digest. *)
  let raw_digest =
    Digest.to_hex
      (Digest.string (Explore.Exec.audit base_in).Chaos.Audit.trace)
  in
  let off = Explore.Exec.run base_in in
  let off_identical =
    String.equal off.Explore.Exec.trace_digest raw_digest
  in
  let perturbed_in =
    { base_in with
      Explore.Exec.perturb =
        { Explore.Perturb.tie = [| 3; -5; 0; 7; -1; 2 |];
          jitter_us = [| 4_000; 0; 1_500; 800 |] } }
  in
  let p1 = Explore.Exec.run perturbed_in in
  let p2 = Explore.Exec.run perturbed_in in
  let perturb_changes =
    not (String.equal p1.Explore.Exec.trace_digest off.Explore.Exec.trace_digest)
  in
  let perturb_replay =
    String.equal p1.Explore.Exec.trace_digest p2.Explore.Exec.trace_digest
    && String.equal p1.Explore.Exec.signature p2.Explore.Exec.signature
  in
  Printf.printf
    "  off-identity %b, perturb-changes-schedule %b, perturb-replay %b\n%!"
    off_identical perturb_changes perturb_replay;

  (* --- safe sweep --------------------------------------------------- *)
  let safe_budget = if smoke then 150 else 400 in
  Printf.printf "safe sweep: budget %d\n%!" safe_budget;
  let safe_cfg =
    { (Explore.Search.default_config ()) with
      Explore.Search.protocols = [ Chaos.Audit.Spanner_rss; Chaos.Audit.Gryff_rsc ];
      presets =
        [ Chaos.Nemesis.Partition_heal; Chaos.Nemesis.Reorder_storm;
          Chaos.Nemesis.Asym_block ];
      budget = safe_budget;
      search_seed = 5;
      max_failures = 2;
      corpus_dir }
  in
  let safe = Explore.Search.run safe_cfg in
  Printf.printf "  %d execs, %d signatures, %d fails, %d unknowns\n%!"
    safe.Explore.Search.execs safe.Explore.Search.signatures
    (List.length safe.Explore.Search.failures)
    safe.Explore.Search.unknowns;

  (* --- seeded-bug control ------------------------------------------- *)
  let control_budget = if smoke then 1_500 else 3_000 in
  Printf.printf "control hunt: unsafe_no_deps, budget %d\n%!" control_budget;
  let metrics = Obs.Metrics.create () in
  (* The hunt base is the shape empirically densest in no-deps anomalies:
     a single hot key (high conflict, small keyspace), read-mostly so the
     carstamp frontier advances slowly and a stranded write stays maximal
     long enough for one client to observe it twice, and a timeout short
     enough that slots stuck behind a one-way block respawn and re-read.
     The search still owns the seeds and perturbation vectors — at this
     budget the control falls within the first ~1000 executions for every
     search seed tried. *)
  let control_cfg =
    { (Explore.Search.default_config ()) with
      Explore.Search.protocols = [ Chaos.Audit.Gryff_rsc ];
      presets = [ Chaos.Nemesis.Asym_block ];
      budget = control_budget;
      search_seed = 1;
      base =
        (fun p ->
          { (Explore.Exec.base p) with
            Explore.Exec.duration_ms = 2_500;
            timeout_ms = 600;
            n_slots = 10;
            n_keys = 2;
            conflict_pct = 100;
            write_pct = 28;
            unsafe = true });
      max_failures = 1;
      shrink_budget = 400;
      corpus_dir =
        Some (Option.value corpus_dir ~default:"_explore_corpus");
      metrics = Some metrics }
  in
  let control = Explore.Search.run control_cfg in
  let found = control.Explore.Search.failures <> [] in
  let shrink_ok, replay_ok, corpus_file, no_costlier, failure_json =
    match control.Explore.Search.failures with
    | [] -> (false, false, "", false, Obs.Json.Null)
    | f :: _ ->
      let shrunk_fails =
        String.length f.Explore.Search.shrunk_verdict >= 4
        && String.equal (String.sub f.Explore.Search.shrunk_verdict 0 4) "fail"
      in
      let no_costlier =
        Explore.Search.cost f.Explore.Search.shrunk
        <= Explore.Search.cost f.Explore.Search.input
      in
      let replay_ok, path =
        match f.Explore.Search.corpus_file with
        | None -> (false, "")
        | Some path -> (
          match (Explore.Corpus.replay_file path, Explore.Corpus.replay_file path)
          with
          | Ok r1, Ok r2 ->
            ( r1.Explore.Corpus.matches && r2.Explore.Corpus.matches
              && String.equal
                   (Explore.Exec.verdict_string
                      r1.Explore.Corpus.outcome.Explore.Exec.verdict)
                   (Explore.Exec.verdict_string
                      r2.Explore.Corpus.outcome.Explore.Exec.verdict),
              path )
          | _ -> (false, path))
      in
      ( shrunk_fails && no_costlier,
        replay_ok,
        path,
        no_costlier,
        Obs.Json.(
          Obj
            [
              ("found_at", int f.Explore.Search.found_at);
              ("verdict", Str f.Explore.Search.verdict);
              ("shrink_execs", int f.Explore.Search.shrink_execs);
              ("shrunk_verdict", Str f.Explore.Search.shrunk_verdict);
              ("input", input_json f.Explore.Search.input);
              ("shrunk", input_json f.Explore.Search.shrunk);
            ]) )
  in
  Printf.printf "  found %b (execs %d), shrink_ok %b, replay_ok %b\n%!" found
    control.Explore.Search.execs shrink_ok replay_ok;
  (match control.Explore.Search.failures with
  | f :: _ ->
    Printf.printf "  repro: %s\n  shrunk: %s\n%!"
      (Explore.Exec.describe f.Explore.Search.input)
      (Explore.Exec.describe f.Explore.Search.shrunk)
  | [] -> ());

  let snap = Obs.Metrics.snapshot metrics in
  let mc name = Obs.Metrics.counter_value snap name in
  let safe_fails = List.length safe.Explore.Search.failures in
  let gates =
    [
      ("perturb_off_identical", off_identical);
      ("perturb_changes_schedule", perturb_changes);
      ("perturb_replay_identical", perturb_replay);
      ("safe_no_false_alarm", safe.Explore.Search.execs > 0 && safe_fails = 0);
      ("safe_signatures", safe.Explore.Search.signatures > 1);
      ("control_found", found);
      ("shrink_ok", shrink_ok);
      ("shrunk_no_costlier", no_costlier);
      ("replay_deterministic", replay_ok);
      ( "control_metrics",
        mc "explore.execs" > 0 && mc "explore.fails" >= 1
        && mc "explore.corpus_saved" >= 1 );
    ]
  in
  let report =
    Obs.Json.(
      Obj
        [
          ( "determinism",
            Obj
              [
                ("perturb_off_identical", Bool off_identical);
                ("perturb_changes_schedule", Bool perturb_changes);
                ("perturb_replay_identical", Bool perturb_replay);
              ] );
          ( "safe",
            Obj
              [
                ("execs", int safe.Explore.Search.execs);
                ("signatures", int safe.Explore.Search.signatures);
                ("novel", int safe.Explore.Search.novel);
                ("fails", int safe_fails);
                ("unknowns", int safe.Explore.Search.unknowns);
              ] );
          ( "control",
            Obj
              [
                ("execs", int control.Explore.Search.execs);
                ("signatures", int control.Explore.Search.signatures);
                ("found", Bool found);
                ("shrink_ok", Bool shrink_ok);
                ("replay_deterministic", Bool replay_ok);
                ("corpus_file", Str corpus_file);
                ( "metrics",
                  Obj
                    (List.map
                       (fun k -> (k, int (mc ("explore." ^ k))))
                       [ "execs"; "novel"; "fails"; "shrink_execs"; "corpus_saved" ])
                );
                ("failure", failure_json);
              ] );
          ("cpu_s", Num (Sys.time () -. t0));
        ])
  in
  (report, gates)
