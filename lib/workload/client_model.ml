type body = client:int -> (unit -> unit) -> unit

let closed_loop engine ~n_clients ?(think_us = 0) ~body ~until () =
  let rec loop client () =
    if Sim.Engine.now engine < until then
      body ~client (fun () ->
          if think_us = 0 then loop client ()
          else Sim.Engine.schedule engine ~after:think_us (loop client))
  in
  for client = 0 to n_clients - 1 do
    Sim.Engine.schedule engine ~after:0 (loop client)
  done

let partly_open engine ~rng ~arrival_rate_per_sec ~stay ?(think_us = 0) ~body
    ~until () =
  if arrival_rate_per_sec <= 0.0 then
    invalid_arg "Client_model.partly_open: arrival rate must be positive";
  if stay < 0.0 || stay >= 1.0 then
    invalid_arg "Client_model.partly_open: stay probability must be in [0, 1)";
  let next_session = ref 0 in
  let mean_gap_us = 1_000_000.0 /. arrival_rate_per_sec in
  let rec session_step session () =
    body ~client:session (fun () ->
        if Sim.Rng.bool rng stay && Sim.Engine.now engine < until then
          if think_us = 0 then session_step session ()
          else Sim.Engine.schedule engine ~after:think_us (session_step session))
  in
  let rec arrivals () =
    if Sim.Engine.now engine < until then begin
      let session = !next_session in
      incr next_session;
      session_step session ();
      let gap = int_of_float (Sim.Rng.exponential rng ~mean:mean_gap_us) in
      Sim.Engine.schedule engine ~after:(max 1 gap) arrivals
    end
  in
  Sim.Engine.schedule engine ~after:0 arrivals;
  (* Upper bound: arrivals cannot outpace one per microsecond. *)
  min (until + 1) (int_of_float (arrival_rate_per_sec *. Sim.Engine.to_sec until) * 4 + 16)

type slot_stats = {
  mutable completed : int;
  mutable timed_out : int;
  mutable post_quiet_completed : int;
  mutable post_quiet_timed_out : int;
  timed_out_kinds : (string, int) Hashtbl.t;
}

let timed_out_by_kind stats =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) stats.timed_out_kinds []
  |> List.sort compare

let slots engine ~n_slots ~timeout_us ~quiet_us ~latency ~new_session ~issue
    ~until () =
  let stats =
    { completed = 0; timed_out = 0; post_quiet_completed = 0;
      post_quiet_timed_out = 0; timed_out_kinds = Hashtbl.create 8 }
  in
  let gen = Array.make n_slots 0 in
  let slot_kind = Array.make n_slots "?" in
  let rec start_session slot =
    if Sim.Engine.now engine < until then run_op slot (new_session slot)
  and run_op slot session =
    let g = gen.(slot) in
    let t0 = Sim.Engine.now engine in
    let finished = ref false in
    Sim.Engine.schedule engine ~after:timeout_us (fun () ->
        if (not !finished) && gen.(slot) = g then begin
          stats.timed_out <- stats.timed_out + 1;
          (let k = slot_kind.(slot) in
           let prev = try Hashtbl.find stats.timed_out_kinds k with Not_found -> 0 in
           Hashtbl.replace stats.timed_out_kinds k (prev + 1));
          if t0 >= quiet_us then
            stats.post_quiet_timed_out <- stats.post_quiet_timed_out + 1;
          gen.(slot) <- g + 1;
          start_session slot
        end);
    issue session
      ~kind:(fun k -> slot_kind.(slot) <- k)
      ~finish:(fun () ->
        finished := true;
        if gen.(slot) = g then begin
          stats.completed <- stats.completed + 1;
          latency (Sim.Engine.now engine - t0);
          if t0 >= quiet_us then
            stats.post_quiet_completed <- stats.post_quiet_completed + 1;
          if Sim.Engine.now engine < until then run_op slot session
        end)
  in
  for slot = 0 to n_slots - 1 do
    start_session slot
  done;
  stats
