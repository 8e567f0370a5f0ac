(* serve-stream: open-loop streaming requests against a durable RISCV
   [Server] through the sans-IO [Evloop] engine, driven by one client
   thread. Arrivals are Poisson at fixed rates; requests mix functions
   new to the phase (generate + journal writes) with repeats of warm
   functions (answered by replay). Each phase gets a fresh server that
   resumes the same warm journal.

   Phases: reference phases at [ref_rate] give the end-to-end figures;
   traced runs add a ladder of rising rates for the highest rate whose
   time to first frame (p95) stays under [ttff_limit_ms] without a
   growing backlog.

   The traffic is assumed, not measured: no trace of real use exists.
   The mix and the reference rate below are stated assumptions. *)

module P = Vega.Pipeline
module Proto = Vega_serve.Proto
module Server = Vega_serve.Server
module Evloop = Vega_serve.Evloop
module Conn = Vega_serve.Conn
module Rng = Vega_util.Rng
open Bx

let target = "RISCV"

(* Assumed mix: half the requests ask for a function new to the server
   (generate + journal writes), half repeat a served one (replay), so
   neither path is a rounding error of the other. *)
let new_share = 0.5

(* Assumed reference rate: new functions keep the loop about a tenth
   busy, so latency shows service time and now and then queueing behind
   a decode in progress, not overload; overload is what the ladder
   measures. *)
let ref_rate = 2.0

let ttff_limit_ms = 500.0
(* A rung asks for each new function at most once, so a rung keeps the
   assumed mix up to (2 x fresh functions) requests: 36 in a 1 s rung,
   past the rate where new functions alone keep the loop busy. *)
let ladder = [ 8.0; 12.0; 16.0; 20.0; 24.0; 28.0; 32.0; 36.0 ]

(* Rung length as a share of the run length. *)
let rung_share = 0.05

type outcome = Pending | Ok_done | Failed | Refused

type req = {
  q_fname : string;
  q_due : float;
  q_repeat : bool;
  mutable q_conn : int;
  mutable q_sent : float;
  mutable q_admitted : bool;  (* waited for a decode slot *)
  mutable q_slot : float;  (* first seen holding a slot *)
  mutable q_first : float;
  mutable q_last : float;
  mutable q_index : int;  (* statement frames received *)
  mutable q_done : float;
  mutable q_outcome : outcome;
  q_buf : Buffer.t;  (* partial line *)
}

type phase = {
  ph_rate : float;
  ph_window : float;
  ph_reqs : req array;
  ph_gaps : float list;
  ph_ticks : int;
  ph_tick_s : float;  (* wall inside Evloop.tick *)
  ph_slot_samples : int list;
  ph_growing : bool;  (* backlog grew over the window *)
  ph_frames : int;
  ph_bytes : int;
  ph_replays : int;
  ph_journal_records : int;
  ph_journal_bytes : int;
  ph_wrong : int;  (* lines that broke a check; their requests are Failed *)
}

let fn_table = Hashtbl.create 128

let () =
  List.iter (fun (f, d, n) -> Hashtbl.replace fn_table f (d, n)) Pins.riscv_functions

(* Every fourth function (18 of 74, spread over the backend's parts) is
   new in each phase. The others are served before every phase (a
   journal restored on start-up); repeats are drawn from them and are
   answered by replay. *)
let is_fresh i = i mod 4 = 3

let warm_set, fresh_set =
  let names = List.map (fun (f, _, _) -> f) Pins.riscv_functions in
  (List.filteri (fun i _ -> not (is_fresh i)) names, List.filteri (fun i _ -> is_fresh i) names)

(* A reference phase asks for every fresh function once, so every run
   decodes the same work: it lasts as long as [ref_rate] needs for that
   at [new_share]. *)
let ref_phase_window =
  float_of_int (List.length fresh_set) /. (new_share *. ref_rate)

(* Arrivals: the count is fixed by rate x window and the offsets are
   uniform order statistics, i.e. a Poisson process conditioned on its
   count. [new_share] of them (at seeded positions, at most one per
   fresh function) ask for a new function, in a seeded order; the rest
   repeat a warm one. *)
let arrivals rng ~rate ~window ~start =
  let n = max 1 (int_of_float (Float.round (rate *. window))) in
  let offs = Array.init n (fun _ -> Rng.float rng window) in
  Array.sort compare offs;
  let fresh = Array.of_list fresh_set in
  Rng.shuffle rng fresh;
  let n_new =
    min (Array.length fresh) (int_of_float (Float.round (new_share *. float_of_int n)))
  in
  let is_new = Array.init n (fun i -> i < n_new) in
  Rng.shuffle rng is_new;
  let warm = Array.of_list warm_set in
  let next_new = ref 0 in
  Array.mapi
    (fun i off ->
      let repeat = not is_new.(i) in
      let fname =
        if repeat then Rng.choose rng warm
        else begin
          incr next_new;
          fresh.(!next_new - 1)
        end
      in
      {
        q_fname = fname;
        q_due = start +. off;
        q_repeat = repeat;
        q_conn = -1;
        q_sent = nan;
        q_admitted = false;
        q_slot = nan;
        q_first = nan;
        q_last = nan;
        q_index = 0;
        q_done = nan;
        q_outcome = Pending;
        q_buf = Buffer.create 64;
      })
    offs

let server_config =
  {
    Server.default_config with
    domains = 1;
    (* one client stands for many users: no per-client rate limit *)
    client_burst = 1e9;
    client_rate = 1e9;
  }

(* Overload shows as latency, not refusals: the wait queue is never the
   limit at the rates the ladder offers. *)
let evloop_config = { Evloop.default_config with ev_wait_cap = 4096 }

(* Check one received line against the request's stream so far. *)
let on_line q ~at ~wrong ~gaps ~frames ~replays line =
  incr frames;
  let bad () =
    incr wrong;
    q.q_outcome <- Failed;
    q.q_done <- at
  in
  if q.q_outcome <> Pending then bad ()
  else
    match Trace.span "proto.decode" (fun () -> Proto.decode_frame line) with
    | Proto.Decoded (Proto.Fstmt { f_index; _ }) ->
        if f_index <> q.q_index then bad ()
        else begin
          if q.q_index = 0 then q.q_first <- at
          else gaps := (at -. q.q_last) :: !gaps;
          q.q_last <- at;
          q.q_index <- q.q_index + 1
        end
    | Proto.Decoded (Proto.Ffinal (Proto.Done { r_fname; r_source; _ })) -> (
        if Float.is_nan q.q_first then q.q_first <- at;
        match Hashtbl.find_opt fn_table q.q_fname with
        | Some (digest, n_stmts)
          when r_fname = q.q_fname
               && Digest.to_hex (Digest.string r_source) = digest
               && q.q_index = (if q.q_repeat then 0 else n_stmts) ->
            if q.q_index = 0 then incr replays;
            q.q_outcome <- Ok_done;
            q.q_done <- at
        | _ -> bad ())
    | Proto.Decoded (Proto.Ffinal (Proto.Rejected _)) ->
        q.q_outcome <- Refused;
        q.q_done <- at
    | Proto.Decoded (Proto.Ffinal (Proto.Failed _)) ->
        q.q_outcome <- Failed;
        q.q_done <- at
    | Proto.Version_skew _ | Proto.Malformed -> bad ()

let take_lines q chunk =
  Buffer.add_string q.q_buf chunk;
  let s = Buffer.contents q.q_buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
      Buffer.clear q.q_buf;
      Buffer.add_string q.q_buf (String.sub s (i + 1) (String.length s - i - 1));
      String.split_on_char '\n' (String.sub s 0 i)

let request fname =
  { Proto.rq_client = "bench"; rq_target = target; rq_fname = fname; rq_deadline_ms = None }

let create_server ?resume t ~decoder ~run_dir =
  match Server.create ~config:server_config ?resume ~run_dir t ~target ~decoder with
  | Ok s -> s
  | Error e -> failwith ("serve-stream: " ^ e)

let copy_file src dst =
  Out_channel.with_open_bin dst (fun oc ->
      Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all))

(* Serve the warm set once and keep the journal every phase resumes. *)
let warm_journal (t : P.t) ~decoder =
  let run_dir = fresh_dir "warm" in
  let server = create_server t ~decoder ~run_dir in
  List.iter
    (fun f ->
      match Server.request server (request f) with
      | Proto.Done _ -> ()
      | _ -> failwith ("serve-stream: warm request failed for " ^ f))
    warm_set;
  Server.drain server;
  P.journal_path run_dir

(* Requests in flight at arrivals in the second half of the window
   against the first half. *)
let growing ~window backlog =
  let half = window /. 2.0 in
  let first = List.filter (fun (o, _) -> o < half) backlog in
  let second = List.filter (fun (o, _) -> o >= half) backlog in
  let avg l = mean (List.map (fun (_, k) -> float_of_int k) l) in
  avg second > (1.5 *. avg first) +. 2.0

let run_phase (t : P.t) ~journal ~decoder ~rng ~rate ~window =
  let run_dir = fresh_dir "serve" in
  copy_file journal (P.journal_path run_dir);
  let server =
    create_server ~resume:true t ~run_dir
      ~decoder:(fun fv -> Trace.span "decode" (fun () -> decoder fv))
  in
  let ev = Evloop.create ~cfg:evloop_config server in
  settle_heap ();
  let start = now () +. 0.001 in
  let reqs = arrivals rng ~rate ~window ~start in
  let n = Array.length reqs in
  (* an overloaded rung drains its backlog: late answers miss the
     latency limit but are not failures *)
  let hard_stop = start +. window +. 60.0 in
  let next = ref 0 and inflight = ref [] in
  let gaps = ref [] and wrong = ref 0 and frames = ref 0 and replays = ref 0 in
  let bytes = ref 0 and ticks = ref 0 and tick_s = ref 0.0 in
  let slots = ref [] and backlog = ref [] in
  let poll_phase q at =
    if Float.is_nan q.q_slot then
      match Evloop.conn_phase ev q.q_conn with
      | Some Conn.Admitted -> q.q_admitted <- true
      | Some (Conn.Streaming | Conn.Draining | Conn.Closed) | None -> q.q_slot <- at
      | Some Conn.Reading -> ()
  in
  while (!next < n || !inflight <> []) && now () < hard_stop do
    let t = now () in
    while !next < n && reqs.(!next).q_due <= t do
      let q = reqs.(!next) in
      incr next;
      backlog := (q.q_due -. start, List.length !inflight) :: !backlog;
      match Trace.span "evloop.open" (fun () -> Evloop.open_conn ev) with
      | None ->
          q.q_outcome <- Refused;
          q.q_done <- now ()
      | Some id ->
          q.q_conn <- id;
          q.q_sent <- now ();
          let cmd = Proto.encode_command (Proto.Cstream (request q.q_fname)) in
          Trace.span "evloop.feed" (fun () -> Evloop.feed ev id (cmd ^ "\n"));
          poll_phase q q.q_sent;
          inflight := q :: !inflight
    done;
    let t0 = now () in
    Trace.span "evloop.tick" (fun () -> Evloop.tick ev);
    let at = now () in
    incr ticks;
    tick_s := !tick_s +. (at -. t0);
    let busy = ref 0 in
    List.iter
      (fun q ->
        poll_phase q at;
        if Evloop.conn_phase ev q.q_conn = Some Conn.Streaming then incr busy;
        let chunk =
          Trace.span "evloop.take" (fun () -> Evloop.take_output ev q.q_conn ~max:max_int)
        in
        bytes := !bytes + String.length chunk;
        List.iter
          (on_line q ~at ~wrong ~gaps ~frames ~replays)
          (take_lines q chunk))
      !inflight;
    slots := !busy :: !slots;
    inflight := List.filter (fun q -> q.q_outcome = Pending) !inflight;
    ignore (Evloop.reap ev);
    if !inflight = [] && !next < n then begin
      (* poll, not sleep, until the next request is due: on a shared VM
         a halted vCPU resumes late and with cold caches, and that delay
         would be charged to the server's latency *)
      let due = reqs.(!next).q_due in
      Trace.span "client.idle" (fun () ->
          while now () < due do
            Domain.cpu_relax ()
          done)
    end
  done;
  (* whatever is still open missed the drain deadline *)
  List.iter
    (fun q ->
      q.q_outcome <- Failed;
      incr wrong)
    !inflight;
  let h = Server.health server in
  Server.drain server;
  let journal_bytes = file_size (P.journal_path run_dir) - file_size journal in
  {
    ph_rate = rate;
    ph_window = window;
    ph_reqs = reqs;
    ph_gaps = !gaps;
    ph_ticks = !ticks;
    ph_tick_s = !tick_s;
    ph_slot_samples = !slots;
    ph_growing = growing ~window (List.rev !backlog);
    ph_frames = !frames;
    ph_bytes = !bytes;
    ph_replays = !replays;
    ph_journal_records = h.Vega_serve.Health.h_journal_records;
    ph_journal_bytes = journal_bytes;
    ph_wrong = !wrong;
  }

(* ---- phase statistics ---- *)

let ms x = 1000.0 *. x

let count ph o = Array.fold_left (fun n q -> if q.q_outcome = o then n + 1 else n) 0 ph.ph_reqs

(* Time to first frame, due time based; a refused or failed request
   counts as missing any limit. *)
let ttffs ph =
  Array.to_list
    (Array.map
       (fun q -> if q.q_outcome = Ok_done then ms (q.q_first -. q.q_due) else infinity)
       ph.ph_reqs)

let ok_list ph f =
  List.filter_map
    (fun q -> if q.q_outcome = Ok_done then Some (f q) else None)
    (Array.to_list ph.ph_reqs)

let lags ph =
  List.filter_map
    (fun q -> if Float.is_nan q.q_sent then None else Some (ms (q.q_sent -. q.q_due)))
    (Array.to_list ph.ph_reqs)

let ttff_p95 ph = quantile 0.95 (ttffs ph)
let passes ph = ttff_p95 ph <= ttff_limit_ms && not ph.ph_growing

(* Highest rate meeting the limit, interpolated between the last passing
   rung and the first failing one on their TTFF p95, so the figure moves
   continuously instead of in ladder steps. *)
let max_rps ~ref_phase rungs =
  let rec go (r_ok, p_ok) = function
    | [] -> r_ok
    | ph :: rest ->
        if passes ph then go (ph.ph_rate, ttff_p95 ph) rest
        else
          (* a rung that failed on backlog growth alone counts as far
             over the limit *)
          let p_bad =
            if ttff_p95 ph <= ttff_limit_ms then 10.0 *. ttff_limit_ms
            else Float.min (ttff_p95 ph) (10.0 *. ttff_limit_ms)
          in
          if p_bad <= p_ok then r_ok
          else
            r_ok
            +. (ph.ph_rate -. r_ok) *. (ttff_limit_ms -. p_ok) /. (p_bad -. p_ok)
  in
  if passes ref_phase then go (ref_phase.ph_rate, ttff_p95 ref_phase) rungs
  else go (0.0, 0.0) (ref_phase :: rungs)

let phase_note i ph =
  Printf.sprintf
    "phase %d: %.0f req/s for %.1f s: sent %d, ok %d, failed %d (%d wrong lines), \
     refused %d, generator lag p95 %.2f ms, ttff p50 %.1f p95 %.1f ms, %s"
    i ph.ph_rate ph.ph_window
    (List.length (lags ph))
    (count ph Ok_done) (count ph Failed) ph.ph_wrong (count ph Refused)
    (quantile 0.95 (lags ph))
    (median (ttffs ph)) (ttff_p95 ph)
    (if passes ph then "meets the limit" else "misses the limit")

let phase_metrics i ph =
  let k = Printf.sprintf "rate%d." i in
  [
    m (k ^ "offered_rps") "1/s" ph.ph_rate;
    m (k ^ "sent") "count" (float_of_int (List.length (lags ph)));
    m (k ^ "ok") "count" (float_of_int (count ph Ok_done));
    m (k ^ "failed") "count" (float_of_int (count ph Failed));
    m (k ^ "refused") "count" (float_of_int (count ph Refused));
    m (k ^ "lag_p95_ms") "ms" (quantile 0.95 (lags ph));
    m (k ^ "ttff_p95_ms") "ms" (ttff_p95 ph);
  ]

(* ---- the workload ---- *)

type window = { ref_phase : phase; rungs : phase list }

(* Phases pooled into one. *)
let pool phs =
  let sumi f = List.fold_left (fun n ph -> n + f ph) 0 phs in
  {
    ph_rate = (List.hd phs).ph_rate;
    ph_window = sum (List.map (fun ph -> ph.ph_window) phs);
    ph_reqs = Array.concat (List.map (fun ph -> ph.ph_reqs) phs);
    ph_gaps = List.concat_map (fun ph -> ph.ph_gaps) phs;
    ph_ticks = sumi (fun ph -> ph.ph_ticks);
    ph_tick_s = sum (List.map (fun ph -> ph.ph_tick_s) phs);
    ph_slot_samples = List.concat_map (fun ph -> ph.ph_slot_samples) phs;
    ph_growing = List.exists (fun ph -> ph.ph_growing) phs;
    ph_frames = sumi (fun ph -> ph.ph_frames);
    ph_bytes = sumi (fun ph -> ph.ph_bytes);
    ph_replays = sumi (fun ph -> ph.ph_replays);
    ph_journal_records = sumi (fun ph -> ph.ph_journal_records);
    ph_journal_bytes = sumi (fun ph -> ph.ph_journal_bytes);
    ph_wrong = sumi (fun ph -> ph.ph_wrong);
  }

(* As many reference phases as fit [ref_window] (at least one), pooled,
   then, with [rung_window], the rising rungs of that length until one
   misses the limit. *)
let measure (t : P.t) ~journal ~decoder ~rng ~ref_window ~rung_window =
  let phase ~rate ~window = run_phase t ~journal ~decoder ~rng ~rate ~window in
  let k = max 1 (int_of_float (Float.round (ref_window /. ref_phase_window))) in
  let ref_phase =
    pool (List.init k (fun _ -> phase ~rate:ref_rate ~window:ref_phase_window))
  in
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let ph = phase ~rate ~window:(Option.get rung_window) in
        if passes ph then climb (ph :: acc) rest else List.rev (ph :: acc)
  in
  let rungs = if rung_window <> None && passes ref_phase then climb [] ladder else [] in
  { ref_phase; rungs }

let phases w = w.ref_phase :: w.rungs
let attempted w = List.fold_left (fun n ph -> n + Array.length ph.ph_reqs) 0 (phases w)

(* Each request counts once, by its final outcome. Refusals count as
   failed operations too: the benchmark offers no rate at which the
   server should refuse. *)
let failed w =
  List.fold_left (fun n ph -> n + count ph Failed + count ph Refused) 0 (phases w)

(* Time to first frame of the answered new-function requests
   ([repeat:false]) or replays ([repeat:true]), ms. *)
let class_ttffs ~repeat ph =
  List.filter_map
    (fun q ->
      if q.q_outcome = Ok_done && q.q_repeat = repeat then Some (ms (q.q_first -. q.q_due))
      else None)
    (Array.to_list ph.ph_reqs)

(* Requests answered per second of event-loop work at the reference
   rate: the rate the loop would sustain if it were never idle. *)
let served_per_busy_s ph = ratio (float_of_int (count ph Ok_done)) ph.ph_tick_s

let ref_notes ph =
  let fresh = class_ttffs ~repeat:false ph and replay = class_ttffs ~repeat:true ph in
  [
    Printf.sprintf
      "reference: %d requests, %d new; new-function ttff p50 %.2f p75 %.2f ms; \
       replay ttff p50 %.2f p75 %.2f ms; %.1f served per busy second"
      (Array.length ph.ph_reqs) (List.length fresh) (median fresh) (quantile 0.75 fresh)
      (median replay) (quantile 0.75 replay) (served_per_busy_s ph);
  ]

let run ~seconds ~seed ~trace =
  let s = setup () in
  let t = s.pipeline in
  let decoder = P.retrieval_decoder t in
  let journal = warm_journal t ~decoder in
  let gc0 = gc_mark () in
  (* untraced: reference phases over the whole run (the end-to-end
     figures); traced runs spend that time on half-length reference
     phases plus the ladder, then traced half-length reference phases *)
  let w =
    measure t ~journal ~decoder ~rng:(Rng.create seed)
      ~ref_window:(if trace then seconds /. 2.0 else seconds)
      ~rung_window:(if trace then Some (rung_share *. seconds) else None)
  in
  let gcm = gc_metrics gc0 in
  let rp = w.ref_phase in
  (* the latencies are those of new-function requests: generation, plus
     any wait behind a decode already in progress *)
  let e2e =
    e2e_metrics ~work_per_s:(served_per_busy_s rp) ~setup_s:s.setup_s
      (List.map (fun x -> x /. 1000.0) (class_ttffs ~repeat:false rp))
  in
  let notes =
    Printf.sprintf
      "target %s, assumed traffic: new-function share %.2f at %.0f req/s; TTFF p95 limit %.0f ms"
      target new_share ref_rate ttff_limit_ms
    :: List.mapi phase_note (phases w)
    @ ref_notes rp
  in
  let base =
    { r_attempted = attempted w; r_failed = failed w; r_e2e = e2e; r_layer = []; r_notes = notes }
  in
  if not trace then base
  else begin
    let max_rps = max_rps ~ref_phase:rp w.rungs in
    let path = Filename.concat (fresh_dir "trace") "spans.tsv" in
    let tw =
      Trace.section ~path (fun () ->
          measure t ~journal ~decoder ~rng:(Rng.create seed) ~ref_window:(seconds /. 2.0)
            ~rung_window:None)
    in
    let sm = Trace.report path in
    let tp = tw.ref_phase in
    let all = phases w in
    let sumi f = float_of_int (List.fold_left (fun n ph -> n + f ph) 0 all) in
    let n_dec = Trace.count sm "decode" in
    let ttff_ok = List.filter Float.is_finite (ttffs rp) in
    let waits =
      List.concat_map
        (fun ph ->
          ok_list ph (fun q -> if q.q_admitted then ms (q.q_slot -. q.q_sent) else 0.0))
        all
    in
    let layer =
      [
        m "stream_ttff_p50_ms" "ms" (median ttff_ok);
        m "stream_ttff_p95_ms" "ms" (quantile 0.95 ttff_ok);
        m "stream_gap_p50_ms" "ms" (median (List.map ms rp.ph_gaps));
        m "stream_gap_p95_ms" "ms" (quantile 0.95 (List.map ms rp.ph_gaps));
        m "stream_done_p95_ms" "ms" (quantile 0.95 (ok_list rp (fun q -> ms (q.q_done -. q.q_due))));
        m "stream_new_ttff_p50_ms" "ms" (median (class_ttffs ~repeat:false rp));
        m "stream_replay_ttff_p50_ms" "ms" (median (class_ttffs ~repeat:true rp));
        m "stream_max_rps" "1/s" max_rps;
        m "retrieval.calls" "count" (float_of_int n_dec);
        m "retrieval.busy_s" "s" (Trace.busy sm "decode");
        m "retrieval.us_per_call" "us" (1e6 *. ratio (Trace.busy sm "decode") (float_of_int n_dec));
        m "journal.records" "count" (sumi (fun ph -> ph.ph_journal_records));
        m "journal.bytes" "B" (sumi (fun ph -> ph.ph_journal_bytes));
        m "evloop.ticks" "count" (sumi (fun ph -> ph.ph_ticks));
        m "evloop.tick_busy_s" "s" (Trace.busy sm "evloop.tick");
        m "evloop.tick_self_s" "s" (Trace.self sm "evloop.tick");
        m "evloop.wait_p95_ms" "ms" (quantile 0.95 waits);
        m "evloop.slots_busy_mean" "count"
          (mean (List.concat_map (fun ph -> List.map float_of_int ph.ph_slot_samples) all));
        m "evloop.rejected" "count" (sumi (fun ph -> count ph Refused));
        m "server.replay_share" "share"
          (ratio (sumi (fun ph -> ph.ph_replays)) (sumi (fun ph -> count ph Ok_done)));
        m "proto.frames" "count" (sumi (fun ph -> ph.ph_frames));
        m "proto.bytes" "B" (sumi (fun ph -> ph.ph_bytes));
        m "proto.decode_busy_s" "s" (Trace.busy sm "proto.decode");
        m "client.sent" "count" (float_of_int (List.length (List.concat_map lags all)));
        m "client.ok" "count" (sumi (fun ph -> count ph Ok_done));
        m "client.failed" "count" (float_of_int (failed w));
        m "client.lag_p95_ms" "ms" (quantile 0.95 (List.concat_map lags all));
        m "failed_share" "share"
          (ratio (float_of_int (failed w + failed tw)) (float_of_int (attempted w + attempted tw)));
      ]
      @ List.concat (List.mapi phase_metrics all)
      @ trace_metrics sm ~overhead_pct:((100.0 *. (served_per_busy_s rp /. served_per_busy_s tp -. 1.0)))
      @ setup_metrics s @ gcm
    in
    {
      r_attempted = attempted w + attempted tw;
      r_failed = failed w + failed tw;
      r_e2e = e2e;
      r_layer = layer;
      r_notes =
        notes
        @ [ Printf.sprintf "stream_max_rps %.2f" max_rps ]
        @ List.map (fun n -> "traced " ^ n) (ref_notes tp);
    }
  end
