(* The bench suite: the gated experiments behind the repo's robustness
   claims, one section each, with one report and one gate mechanism.

     dune exec bench/suite.exe -- --smoke                  # every section, CI sizes
     dune exec bench/suite.exe -- --smoke batch overload   # named sections only
     dune exec bench/suite.exe -- --corpus DIR explore     # full size, keep repros

   Each section returns its report and its named gates. The suite writes
   one document (default BENCH_suite.json, schema rss-repro/bench/v1),
   prints every failing gate by name, and exits 1 if any gate failed. *)

let schema = "rss-repro/bench/v1"

let () =
  let smoke = ref false and out = ref "BENCH_suite.json" and corpus = ref None in
  let sections =
    [
      ("scale", Scale.run);
      ("batch", Batch.run);
      ("reshard", Reshard.run);
      ("durable", Durable_faults.run);
      ("explore", fun ~smoke -> Exploration.run ~smoke ~corpus_dir:!corpus);
      ("overload", Overload.run);
      ("audit", Chaos_audit.run);
    ]
  in
  let names = ref [] in
  Arg.parse
    [
      ("--smoke", Arg.Set smoke, " CI sizes (seconds, not minutes)");
      ("--out", Arg.Set_string out, "FILE report path (default BENCH_suite.json)");
      ( "--corpus",
        Arg.String (fun d -> corpus := Some d),
        "DIR where the explore section saves shrunk repros" );
    ]
    (fun a ->
      if List.mem_assoc a sections then names := a :: !names
      else raise (Arg.Bad ("unknown section " ^ a)))
    ("suite [--smoke] [--out FILE] [--corpus DIR] [SECTION...]; sections: "
    ^ String.concat " " (List.map fst sections));
  let results =
    List.filter_map
      (fun (name, run) ->
        if !names <> [] && not (List.mem name !names) then None
        else begin
          Printf.printf "######## %s ########\n%!" name;
          let report, gates = run ~smoke:!smoke in
          Some (name, report, gates)
        end)
      sections
  in
  let failing =
    List.concat_map
      (fun (name, _, gates) ->
        List.filter_map
          (fun (g, ok) -> if ok then None else Some (name ^ "." ^ g))
          gates)
      results
  in
  let text =
    Obs.Json.(
      to_string
        (Obj
           [
             ("schema", Str schema);
             ("smoke", Bool !smoke);
             ( "sections",
               Arr
                 (List.map
                    (fun (name, report, gates) ->
                      Obj
                        [
                          ("name", Str name);
                          ("ok", Bool (List.for_all snd gates));
                          ("gates", Obj (List.map (fun (g, ok) -> (g, Bool ok)) gates));
                          ("report", report);
                        ])
                    results) );
             ("ok", Bool (failing = []));
           ]))
  in
  let oc = open_out !out in
  output_string oc (text ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  (* The report must read back as the schema it names. *)
  let failing =
    match Obs.Json.parse text with
    | Ok d when Obs.Json.member "schema" d = Some (Obs.Json.Str schema) -> failing
    | _ -> failing @ [ "suite.report_parses" ]
  in
  List.iter
    (fun (name, _, gates) ->
      Printf.printf "  %-9s %d/%d gates\n" name
        (List.length (List.filter snd gates))
        (List.length gates))
    results;
  List.iter (Printf.printf "FAILED GATE %s\n") failing;
  if failing <> [] then exit 1
