(* Direct unit tests for the Spanner lock table: shared/exclusive semantics,
   upgrades, wound-wait priorities, prepared-holder escalation, queue
   fairness, release processing, the drain order after a multi-key wound,
   and a random-workload property against a grant model. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

type harness = {
  engine : Sim.Engine.t;
  locks : Spanner.Locks.t;
  prepared : (int, unit) Hashtbl.t;
  wounded : (int, unit) Hashtbl.t;
  escalations : int list ref;
}

let mk () =
  let engine = Sim.Engine.create () in
  let prepared = Hashtbl.create 8 in
  let wounded = Hashtbl.create 8 in
  let escalations = ref [] in
  let locks =
    Spanner.Locks.create engine
      ~is_prepared:(fun txn -> Hashtbl.mem prepared txn)
      ~is_wounded:(fun txn -> Hashtbl.mem wounded txn)
      ~wound:(fun txn -> Hashtbl.replace wounded txn ())
      ~wound_prepared:(fun txn -> escalations := txn :: !escalations)
  in
  { engine; locks; prepared; wounded; escalations }

(* Acquire and record the outcome. *)
let try_read h ~key ~txn ~prio =
  let result = ref `Pending in
  Spanner.Locks.acquire_read h.locks ~key ~txn ~priority:(prio, txn) (function
    | Spanner.Locks.Granted _ -> result := `Granted
    | Spanner.Locks.Aborted -> result := `Aborted);
  Sim.Engine.run h.engine;
  !result

let try_write h ~key ~txn ~prio =
  let result = ref `Pending in
  Spanner.Locks.acquire_write h.locks ~key ~txn ~priority:(prio, txn) (function
    | Spanner.Locks.Granted _ -> result := `Granted
    | Spanner.Locks.Aborted -> result := `Aborted);
  Sim.Engine.run h.engine;
  !result

let test_shared_reads () =
  let h = mk () in
  check bool "r1" true (try_read h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "r2 shares" true (try_read h ~key:1 ~txn:2 ~prio:20 = `Granted);
  check bool "both held" true
    (Spanner.Locks.holds_read h.locks ~key:1 ~txn:1
    && Spanner.Locks.holds_read h.locks ~key:1 ~txn:2)

let test_write_excludes () =
  let h = mk () in
  check bool "w1" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  (* Younger writer must wait (no wound), so its request stays pending. *)
  check bool "w2 waits" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Pending);
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check bool "w2 granted after release" true
    (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2)

let test_older_wounds_younger () =
  let h = mk () in
  check bool "young writer" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Granted);
  (* Older requester wounds the younger holder and takes the lock. *)
  check bool "old granted" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "young wounded" true (Hashtbl.mem h.wounded 2);
  check bool "young lost lock" false (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2)

let test_younger_waits () =
  let h = mk () in
  check bool "old holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "young waits" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Pending);
  check bool "no wound" false (Hashtbl.mem h.wounded 1)

let test_prepared_escalation () =
  let h = mk () in
  check bool "young holder" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Granted);
  Hashtbl.replace h.prepared 2 ();
  (* Older requester cannot strip a prepared holder: it escalates to the
     holder's coordinator and waits. *)
  check bool "old waits" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Pending);
  check (Alcotest.list int) "escalated" [ 2 ] !(h.escalations);
  check bool "holder keeps lock" true (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2)

let test_upgrade () =
  let h = mk () in
  check bool "read" true (try_read h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "upgrade to write" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "write held" true (Spanner.Locks.holds_write h.locks ~key:1 ~txn:1)

let test_upgrade_conflict_wounds_other_reader () =
  let h = mk () in
  check bool "old reader" true (try_read h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "young reader" true (try_read h ~key:1 ~txn:2 ~prio:20 = `Granted);
  (* The older reader upgrades: the younger reader gets wounded. *)
  check bool "upgrade" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "young wounded" true (Hashtbl.mem h.wounded 2)

let test_reader_waits_behind_older_queued_writer () =
  let h = mk () in
  check bool "holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "older writer queues" true (try_write h ~key:1 ~txn:2 ~prio:12 = `Pending);
  (* A younger read must not jump the older queued writer. *)
  check bool "younger read waits" true (try_read h ~key:1 ~txn:3 ~prio:30 = `Pending);
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check bool "writer got it first" true (Spanner.Locks.holds_write h.locks ~key:1 ~txn:2);
  Spanner.Locks.release_all h.locks ~txn:2;
  Sim.Engine.run h.engine;
  check bool "then the reader" true (Spanner.Locks.holds_read h.locks ~key:1 ~txn:3)

let test_waiters_behind_blocked_head_proceed () =
  (* The queue must not be strictly FIFO-blocking: a read stuck behind an
     OLDER queued writer must not strand an unrelated waiter. Here two reads
     queue behind a writer; on release both proceed together. *)
  let h = mk () in
  check bool "holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "r2 waits" true (try_read h ~key:1 ~txn:2 ~prio:20 = `Pending);
  check bool "r3 waits" true (try_read h ~key:1 ~txn:3 ~prio:30 = `Pending);
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check bool "both readers granted" true
    (Spanner.Locks.holds_read h.locks ~key:1 ~txn:2
    && Spanner.Locks.holds_read h.locks ~key:1 ~txn:3)

let test_wounded_waiter_aborted () =
  let h = mk () in
  check bool "holder" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  let outcome = ref `Pending in
  Spanner.Locks.acquire_write h.locks ~key:1 ~txn:2 ~priority:(20, 2) (function
    | Spanner.Locks.Granted _ -> outcome := `Granted
    | Spanner.Locks.Aborted -> outcome := `Aborted);
  Sim.Engine.run h.engine;
  (* Txn 2 is wounded elsewhere while queued; release must abort it, not
     grant. *)
  Hashtbl.replace h.wounded 2 ();
  Spanner.Locks.release_all h.locks ~txn:1;
  Sim.Engine.run h.engine;
  check bool "aborted, not granted" true (!outcome = `Aborted)

let test_wound_releases_all_keys () =
  let h = mk () in
  check bool "y holds 1" true (try_write h ~key:1 ~txn:2 ~prio:20 = `Granted);
  check bool "y holds 2" true (try_write h ~key:2 ~txn:2 ~prio:20 = `Granted);
  (* Wounding on key 1 frees key 2 as well: a waiter there gets in. *)
  let blocked = ref `Pending in
  Spanner.Locks.acquire_write h.locks ~key:2 ~txn:3 ~priority:(30, 3) (function
    | Spanner.Locks.Granted _ -> blocked := `Granted
    | Spanner.Locks.Aborted -> blocked := `Aborted);
  Sim.Engine.run h.engine;
  check bool "waiter pending" true (!blocked = `Pending);
  check bool "old wounds via key 1" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  Sim.Engine.run h.engine;
  check bool "waiter freed on key 2" true (!blocked = `Granted)

let test_abort_on_already_wounded_request () =
  let h = mk () in
  Hashtbl.replace h.wounded 9 ();
  check bool "wounded requester aborted immediately" true
    (try_read h ~key:1 ~txn:9 ~prio:10 = `Aborted)

let test_wound_counter () =
  let h = mk () in
  ignore (try_write h ~key:1 ~txn:2 ~prio:20);
  ignore (try_write h ~key:1 ~txn:1 ~prio:10);
  check int "one wound inflicted" 1 (Spanner.Locks.wounds_inflicted h.locks)

let test_reacquire_held_lock () =
  let h = mk () in
  check bool "first" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "again" true (try_write h ~key:1 ~txn:1 ~prio:10 = `Granted);
  check bool "read while writing" true (try_read h ~key:1 ~txn:1 ~prio:10 = `Granted)

(* One wound frees several keys at once, so the drain loop holds more than
   one dirty key and its pick order decides which waiter is served first.
   The exact order in which the grant and abort continuations fire is
   pinned: any change to the drain's data structures must reproduce it. *)
let test_multi_key_wound_order () =
  let h = mk () in
  let log = ref [] in
  let note ~key ~txn = function
    | Spanner.Locks.Granted _ -> log := Printf.sprintf "g%d@%d" txn key :: !log
    | Spanner.Locks.Aborted -> log := Printf.sprintf "a%d@%d" txn key :: !log
  in
  let acquire kind ~key ~txn ~prio =
    let f =
      match kind with
      | `R -> Spanner.Locks.acquire_read
      | `W -> Spanner.Locks.acquire_write
    in
    f h.locks ~key ~txn ~priority:(prio, txn) (note ~key ~txn);
    Sim.Engine.run h.engine
  in
  (* Txn 5 holds six keys; txn 9 (older) holds key 20, where txn 5 queues. *)
  List.iter (fun key -> acquire `W ~key ~txn:5 ~prio:50) [ 1; 2; 3; 4; 5; 6 ];
  acquire `W ~key:20 ~txn:9 ~prio:40;
  acquire `W ~key:20 ~txn:5 ~prio:50;
  (* Younger waiters behind txn 5 on every other key. *)
  acquire `W ~key:2 ~txn:6 ~prio:60;
  acquire `R ~key:3 ~txn:7 ~prio:70;
  acquire `W ~key:3 ~txn:8 ~prio:80;
  acquire `R ~key:4 ~txn:10 ~prio:90;
  acquire `R ~key:4 ~txn:11 ~prio:91;
  acquire `W ~key:5 ~txn:12 ~prio:92;
  acquire `R ~key:6 ~txn:13 ~prio:93;
  acquire `W ~key:6 ~txn:14 ~prio:94;
  log := [];
  (* The oldest txn wounds txn 5 through key 1: keys 1-6 and 20 turn dirty
     together. *)
  acquire `W ~key:1 ~txn:1 ~prio:10;
  let wave1 = List.rev !log in
  log := [];
  List.iter (fun txn -> Spanner.Locks.release_all h.locks ~txn) [ 7; 13; 9 ];
  Sim.Engine.run h.engine;
  let wave2 = List.rev !log in
  check (Alcotest.list Alcotest.string) "wound wave"
    [ "a5@20"; "g1@1"; "g10@4"; "g11@4"; "g13@6"; "g12@5"; "g7@3"; "g6@2" ]
    wave1;
  check (Alcotest.list Alcotest.string) "release wave" [ "g8@3"; "g14@6" ] wave2;
  check int "one wound" 1 (Spanner.Locks.wounds_inflicted h.locks)

(* Random acquire / prepare / release workloads over six txns and five
   keys, with wounds from conflicting priorities here and from elsewhere
   (a txn marked wounded without this table stripping it, as when another
   shard wounds it). The reference model is built from what the table
   reports: a txn holds what its Granted continuations announced, until
   this table wounds it or it releases. After every step
   [holds_read]/[holds_write] must agree with the model; once every txn has
   released, the table must hold no entry at all. *)
let prop_model =
  let op = QCheck.Gen.(triple (int_bound 8) (int_range 1 6) (int_bound 4)) in
  QCheck.Test.make ~name:"holds_* match the grant model; table empties" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_bound 80) op))
    (fun ops ->
      let engine = Sim.Engine.create () in
      let prepared = Hashtbl.create 8 in
      let wounded = Hashtbl.create 8 in
      let gone = Hashtbl.create 8 in  (* wounded here, or released *)
      let held = Hashtbl.create 8 in  (* (txn, key) -> write held? *)
      let forget txn =
        Hashtbl.replace gone txn ();
        Hashtbl.filter_map_inplace (fun (t, _) w -> if t = txn then None else Some w) held
      in
      let locks =
        Spanner.Locks.create engine
          ~is_prepared:(Hashtbl.mem prepared)
          ~is_wounded:(Hashtbl.mem wounded)
          ~wound:(fun txn ->
            Hashtbl.replace wounded txn ();
            forget txn)
          ~wound_prepared:(fun _ -> ())
      in
      let on_grant txn key write = function
        | Spanner.Locks.Granted _ when not (Hashtbl.mem gone txn) ->
          let had = Option.value ~default:false (Hashtbl.find_opt held (txn, key)) in
          Hashtbl.replace held (txn, key) (had || write)
        | Spanner.Locks.Granted _ | Spanner.Locks.Aborted -> ()
      in
      let agrees () =
        List.for_all
          (fun txn ->
            List.for_all
              (fun key ->
                let m = Hashtbl.find_opt held (txn, key) in
                Spanner.Locks.holds_read locks ~key ~txn = (m <> None)
                && Spanner.Locks.holds_write locks ~key ~txn = (m = Some true))
              [ 0; 1; 2; 3; 4 ])
          [ 1; 2; 3; 4; 5; 6 ]
      in
      let released = Hashtbl.create 8 in
      let release txn =
        Hashtbl.replace released txn ();
        forget txn;
        Spanner.Locks.release_all locks ~txn
      in
      let step (code, txn, key) =
        (if Hashtbl.mem released txn then ()
         else if code < 6 then begin
           let write = code >= 3 in
           let acquire =
             if write then Spanner.Locks.acquire_write else Spanner.Locks.acquire_read
           in
           acquire locks ~key ~txn ~priority:(txn * 10, txn) (on_grant txn key write)
         end
         else if code = 6 then release txn
         else if Hashtbl.mem wounded txn then ()
         else if code = 7 then Hashtbl.replace prepared txn ()
         else if not (Hashtbl.mem prepared txn) then Hashtbl.replace wounded txn ());
        Sim.Engine.run engine;
        agrees ()
      in
      List.for_all step ops
      && begin
           List.iter release [ 1; 2; 3; 4; 5; 6 ];
           Sim.Engine.run engine;
           agrees () && Spanner.Locks.n_entries locks = 0
         end)

let suites =
  [
    ( "spanner.locks",
      [
        Alcotest.test_case "shared reads" `Quick test_shared_reads;
        Alcotest.test_case "write excludes" `Quick test_write_excludes;
        Alcotest.test_case "older wounds younger" `Quick test_older_wounds_younger;
        Alcotest.test_case "younger waits" `Quick test_younger_waits;
        Alcotest.test_case "prepared escalation" `Quick test_prepared_escalation;
        Alcotest.test_case "upgrade" `Quick test_upgrade;
        Alcotest.test_case "upgrade wounds reader" `Quick
          test_upgrade_conflict_wounds_other_reader;
        Alcotest.test_case "anti-starvation ordering" `Quick
          test_reader_waits_behind_older_queued_writer;
        Alcotest.test_case "no head-of-line stranding" `Quick
          test_waiters_behind_blocked_head_proceed;
        Alcotest.test_case "wounded waiter aborted" `Quick test_wounded_waiter_aborted;
        Alcotest.test_case "wound releases all keys" `Quick test_wound_releases_all_keys;
        Alcotest.test_case "wounded requester" `Quick test_abort_on_already_wounded_request;
        Alcotest.test_case "wound counter" `Quick test_wound_counter;
        Alcotest.test_case "re-acquire held" `Quick test_reacquire_held_lock;
        Alcotest.test_case "multi-key wound order" `Quick test_multi_key_wound_order;
        QCheck_alcotest.to_alcotest prop_model;
      ] );
  ]
