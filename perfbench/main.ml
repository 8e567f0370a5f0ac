(* perfbench: the repository benchmark.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   runs one workload, checks its outputs and prints, as the last line of
   standard output, one JSON object with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1). Earlier lines are
   human-readable notes. The exit code is 1 when any output check
   failed. [--pin] regenerates pins.ml. *)

let workloads =
  [
    ("backend-gen", Wl_gen.run);
    ("pass1-eval", Wl_pass1.run);
    ("serve-stream", Wl_stream.run);
    ("route-hot", Wl_route.run);
  ]

let e2e_names =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("work_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p75_ms", "ms");
  ]

let phase_names =
  List.concat
    (List.init 9 (fun i ->
         List.map
           (fun (k, u) -> (Printf.sprintf "rate%d.%s" i k, u))
           [
             ("offered_rps", "1/s"); ("sent", "count"); ("ok", "count");
             ("failed", "count"); ("refused", "count"); ("lag_p95_ms", "ms");
             ("ttff_p95_ms", "ms");
           ]))

(* Every per-layer metric, in output order; a workload that bypasses a
   layer reports 0 for it. *)
let layer_names =
  [
    ("gen_stmts_per_s", "1/s"); ("eval_fns_per_s", "1/s");
    ("stream_ttff_p50_ms", "ms"); ("stream_ttff_p95_ms", "ms");
    ("stream_gap_p50_ms", "ms"); ("stream_gap_p95_ms", "ms");
    ("stream_done_p95_ms", "ms"); ("stream_new_ttff_p50_ms", "ms");
    ("stream_replay_ttff_p50_ms", "ms"); ("stream_max_rps", "1/s");
    ("route_rps", "1/s"); ("route_p50_us", "us"); ("route_p99_us", "us");
    ("failed_share", "share");
    ("retrieval.calls", "count"); ("retrieval.busy_s", "s");
    ("retrieval.us_per_call", "us"); ("retrieval.wall_share", "share");
    ("generate.stmts", "count"); ("generate.self_s", "s");
    ("generate.primary_share", "share");
    ("eval.pass1.calls", "count"); ("eval.pass1.busy_s", "s");
    ("eval.pass1.wall_share", "share"); ("eval.refart_s", "s");
    ("eval.pass_share", "share");
    ("lint.busy_s", "s"); ("absint.busy_s", "s");
    ("journal.records", "count"); ("journal.bytes", "B");
    ("evloop.ticks", "count"); ("evloop.tick_busy_s", "s");
    ("evloop.tick_self_s", "s"); ("evloop.wait_p95_ms", "ms");
    ("evloop.slots_busy_mean", "count"); ("evloop.rejected", "count");
    ("server.replay_share", "share"); ("proto.frames", "count");
    ("proto.bytes", "B"); ("proto.decode_busy_s", "s");
    ("router.routes", "count"); ("router.busy_s", "s");
    ("router.cache_hit_share", "share"); ("cache.hits", "count");
    ("cache.misses", "count"); ("cache.evictions", "count");
    ("route.warm_s", "s");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("client.sent", "count"); ("client.ok", "count"); ("client.failed", "count");
    ("client.lag_p95_ms", "ms");
    ("setup.prepare_s", "s"); ("setup.fit_s", "s");
    ("trace.wall_s", "s"); ("trace.unattributed_share", "share"); ("trace.spans", "count");
    ("trace.span_ns", "ns"); ("trace.overhead_pct", "%");
  ]
  @ phase_names

let usage () =
  prerr_endline
    "usage: main.exe --workload <backend-gen|pass1-eval|serve-stream|route-hot> \
     --seed <n> --seconds <s> --trace <0|1>";
  exit 2

(* Complete [got] to exactly [names]: names a workload did not report
   are 0 and undefined per-layer values -1; a reported name outside
   [names] or a non-finite end-to-end value is a defect of the
   benchmark. *)
let complete names (got : Bx.metric list) ~fill =
  List.iter
    (fun (x : Bx.metric) ->
      if not (List.mem_assoc x.Bx.m_name names) then
        failwith ("metric not declared: " ^ x.Bx.m_name))
    got;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (x : Bx.metric) -> x.Bx.m_name = name) got with
      | Some x when Float.is_finite x.Bx.m_value -> (name, x.Bx.m_value, unit)
      | Some _ when fill -> (name, -1.0, unit)  (* undefined, e.g. a p95 over failures *)
      | Some _ -> failwith ("non-finite metric: " ^ name)
      | None when fill -> (name, 0.0, unit)
      | None -> failwith ("metric missing: " ^ name))
    names

let json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--pin" ] -> Pin.run ()
  | _ ->
      let rec parse acc = function
        | [] -> acc
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | _ -> usage ()
      in
      let kv = parse [] args in
      let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
      let run =
        match List.assoc_opt (get "workload") workloads with
        | Some f -> f
        | None -> usage ()
      in
      let num f k = match f (get k) with Some v -> v | None -> usage () in
      let seed = num int_of_string_opt "seed" in
      let seconds = num float_of_string_opt "seconds" in
      let trace =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      if seconds <= 0.0 then usage ();
      let r = run ~seconds ~seed ~trace in
      List.iter print_endline r.Bx.r_notes;
      List.iter
        (fun (x : Bx.metric) ->
          Printf.printf "end-to-end %s %.6g %s\n" x.Bx.m_name x.Bx.m_value x.Bx.m_unit)
        r.Bx.r_e2e;
      let metrics =
        if trace then complete layer_names r.Bx.r_layer ~fill:true
        else complete e2e_names r.Bx.r_e2e ~fill:false
      in
      let correct = r.Bx.r_failed = 0 && r.Bx.r_attempted > 0 in
      print_endline
        (json ~correct ~attempted:(max 1 r.Bx.r_attempted) ~failed:r.Bx.r_failed metrics);
      if not correct then exit 1
