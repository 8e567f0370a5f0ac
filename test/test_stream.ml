(* Tests for the streaming serve core: frame wire properties, the
   tick-driven event loop (admission, slot handoff, cancellation at
   statement boundaries, backpressure shed, slow-loris and half-close
   handling), journal partial-prefix semantics after a cancel, resume
   bit-identity, peer-gone hardening of [send_all], and the select()
   front-end driving real sockets. *)

module V = Vega
module R = Vega_robust
module S = Vega_serve
module Ev = S.Evloop

let target = "RISCV"
let pipeline = Test_robust.pipeline

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vega_stream_%d_%s%d" (Unix.getpid ()) name !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

let mk ?(client = "t") ?deadline_ms fname =
  {
    S.Proto.rq_client = client;
    rq_target = target;
    rq_fname = fname;
    rq_deadline_ms = deadline_ms;
  }

let fnames t =
  List.map
    (fun (b : V.Pipeline.bundle) -> b.V.Pipeline.spec.Vega_corpus.Spec.fname)
    t.V.Pipeline.prep.V.Pipeline.bundles

let tcfg =
  {
    S.Server.default_config with
    S.Server.domains = 1;
    queue_cap = 128;
    client_burst = 1000.0;
    client_rate = 0.0;
  }

let mk_server ?run_dir ?resume ?decoder () =
  let t = Lazy.force pipeline in
  let decoder =
    match decoder with
    | Some d -> d
    | None -> V.Pipeline.retrieval_decoder t
  in
  match S.Server.create ~config:tcfg ?run_dir ?resume t ~target ~decoder with
  | Error e -> Alcotest.failf "server create failed: %s" e
  | Ok srv -> srv

(* engine config tuned for scripted tests: one statement boundary per
   tick so schedules are easy to reason about *)
let ecfg =
  {
    Ev.default_config with
    Ev.ev_slots = 2;
    ev_steps_per_tick = 1;
    ev_idle_ticks = 50;
    ev_stall_ticks = 2;
    ev_wbuf_limit = 256;
  }

(* ---------------- scripted-client driver ---------------- *)

(* Tick the engine while reading this connection at [read_budget] bytes
   per tick, decoding frames as they arrive. [on_stmt] fires after the
   n-th statement frame (1-based) — the hook cancel/half-close scripts
   use. Returns (statement frame indexes in arrival order, final reply
   if one arrived). *)
let drive ?(max_ticks = 5_000) ?(read_budget = max_int) ?on_stmt e id =
  let stmts = ref [] in
  let final = ref None in
  let nstmt = ref 0 in
  let buf = Buffer.create 256 in
  let ticks = ref 0 in
  while !final = None && !ticks < max_ticks && Ev.conn_phase e id <> None do
    incr ticks;
    Ev.tick e;
    Buffer.add_string buf (Ev.take_output e id ~max:read_budget);
    let s = Buffer.contents buf in
    Buffer.clear buf;
    let rec go = function
      | [] -> ()
      | [ partial ] -> Buffer.add_string buf partial
      | line :: rest ->
          (match S.Proto.decode_frame line with
          | S.Proto.Decoded (S.Proto.Fstmt { f_index; _ }) ->
              stmts := f_index :: !stmts;
              incr nstmt;
              Option.iter (fun cb -> cb !nstmt) on_stmt
          | S.Proto.Decoded (S.Proto.Ffinal r) -> final := Some r
          | S.Proto.Version_skew _ | S.Proto.Malformed ->
              Alcotest.failf "unparseable frame: %s" line);
          go rest
    in
    go (String.split_on_char '\n' s);
    ignore (Ev.reap e)
  done;
  (List.rev !stmts, !final)

(* Let the engine quiesce (flush drains, reap closed connections). *)
let settle ?(ticks = 10) e =
  for _ = 1 to ticks do
    Ev.tick e;
    ignore (Ev.reap e)
  done

let open_stream e fname =
  match Ev.open_conn e with
  | None -> Alcotest.fail "engine refused a connection"
  | Some id ->
      Ev.feed e id (S.Proto.encode_command (S.Proto.Cstream (mk fname)) ^ "\n");
      id

let expect_final = function
  | Some r -> r
  | None -> Alcotest.fail "stream ended without a final frame"

(* Count a function's statements by streaming it once on a throwaway
   engine. *)
let stmt_count fname =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let id = open_stream e fname in
  let stmts, final = drive e id in
  (match expect_final final with
  | S.Proto.Done _ -> ()
  | r -> Alcotest.failf "count stream failed: %s" (S.Proto.encode_reply r));
  S.Server.drain srv;
  List.length stmts

(* Corpus functions sorted by statement count, busiest first — chaos
   tests want room to cancel mid-flight. *)
let counted_fnames =
  lazy
    (let t = Lazy.force pipeline in
     let counted = List.map (fun f -> (stmt_count f, f)) (fnames t) in
     List.sort (fun a b -> compare b a) counted)

let busiest_fname =
  lazy
    (let n, f = List.hd (Lazy.force counted_fnames) in
     Alcotest.(check bool) "a multi-statement function exists" true (n >= 2);
     (n, f))

(* A second function, distinct from the busiest — for tests that need a
   fresh (never-decoded) fname after the busiest one is already cached. *)
let second_fname =
  lazy
    (match Lazy.force counted_fnames with
    | _ :: (n, f) :: _ ->
        Alcotest.(check bool) "a second function exists" true (n >= 1);
        f
    | _ -> Alcotest.fail "corpus has fewer than two functions")

(* ---------------- frame wire properties ---------------- *)

let float_eq a b = a = b || (Float.is_nan a && Float.is_nan b)

let gen_frame =
  let open QCheck.Gen in
  let token = string_size ~gen:printable (int_range 0 10) in
  let stmt =
    map
      (fun (i, level, score, ok, toks) ->
        S.Proto.Fstmt
          {
            f_index = i;
            f_level = level;
            f_score = score;
            f_shape_ok = ok;
            f_tokens = toks;
          })
      (tup5 (int_range 0 1000)
         (oneofl [ "primary"; "conservative"; "template"; "omitted" ])
         float bool
         (list_size (int_range 0 5) token))
  in
  let final =
    oneofl
      [
        S.Proto.Ffinal
          (S.Proto.Done
             {
               r_fname = "f";
               r_target = "RISCV";
               r_confidence = 0.5;
               r_degraded = 1;
               r_resumed = false;
               r_source = "decoder";
             });
        S.Proto.Ffinal (S.Proto.Failed "boom");
        S.Proto.Ffinal (S.Proto.Rejected (S.Proto.Cancelled { at_stmt = 3 }));
        S.Proto.Ffinal
          (S.Proto.Rejected
             (S.Proto.Slow_reader { buffered = 9000; limit = 4096 }));
        S.Proto.Ffinal (S.Proto.Rejected (S.Proto.Idle_timeout { ticks = 7 }));
        S.Proto.Ffinal
          (S.Proto.Rejected (S.Proto.Queue_full { depth = 3; cap = 3 }));
      ]
  in
  frequency [ (4, stmt); (1, final) ]

(* [compare] (unlike [=]) treats nan as equal to itself, which is what
   a round-trip through the hex-float wire encoding preserves. *)
let frame_eq (a : S.Proto.frame) b = compare a b = 0
let _ = float_eq

let test_frame_roundtrip =
  QCheck.Test.make ~count:500 ~name:"frame encode/decode round-trips"
    (QCheck.make gen_frame) (fun frame ->
      match S.Proto.decode_frame (S.Proto.encode_frame frame) with
      | S.Proto.Decoded got -> frame_eq frame got
      | S.Proto.Version_skew _ | S.Proto.Malformed -> false)

(* Truncations, corruptions and junk must decode to a typed error —
   never raise. *)
let test_frame_truncation =
  QCheck.Test.make ~count:500
    ~name:"truncated/corrupt frames are typed errors, not exceptions"
    QCheck.(pair (make gen_frame) (pair small_nat small_string))
    (fun (frame, (cut, junk)) ->
      let line = S.Proto.encode_frame frame in
      let truncated = String.sub line 0 (min cut (String.length line)) in
      let corrupted =
        if String.length line = 0 then line
        else
          String.mapi
            (fun i c ->
              if i = cut mod String.length line then
                Char.chr (Char.code c lxor 0x01)
              else c)
            line
      in
      let typed input =
        match S.Proto.decode_frame input with
        | S.Proto.Decoded _ | S.Proto.Version_skew _ | S.Proto.Malformed ->
            true
        | exception _ -> false
      in
      (* a strict prefix can never pass the checksum *)
      let prefix_rejected =
        String.length truncated = String.length line
        ||
        match S.Proto.decode_frame truncated with
        | S.Proto.Malformed | S.Proto.Version_skew _ -> true
        | S.Proto.Decoded _ -> false
      in
      typed truncated && typed corrupted && typed junk && prefix_rejected)

(* ---------------- engine: basic streaming ---------------- *)

let test_stream_basic () =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let _, fname = Lazy.force busiest_fname in
  let id = open_stream e fname in
  let stmts, final = drive e id in
  (* frames arrive indexed, in order, then the final verdict *)
  List.iteri
    (fun i idx -> Alcotest.(check int) "frame indexes in order" i idx)
    stmts;
  let reply = expect_final final in
  (match reply with
  | S.Proto.Done d ->
      Alcotest.(check string) "final names the function" fname d.r_fname
  | r -> Alcotest.failf "stream failed: %s" (S.Proto.encode_reply r));
  (* the streamed verdict matches the blocking path bit-for-bit *)
  let reference = S.Server.request srv (mk fname) in
  Alcotest.(check bool) "streamed final = blocking reply" true
    (reply = reference);
  settle e;
  Alcotest.(check bool) "connection reaped, engine idle" true (Ev.idle e);
  let h = S.Server.health srv in
  Alcotest.(check int) "journal lag settled" 0 h.S.Health.h_journal_lag;
  S.Server.drain srv

(* A plain [Creq] rides the same engine and answers with the classic
   single reply line. *)
let test_plain_request_on_engine () =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let t = Lazy.force pipeline in
  let fname = List.hd (fnames t) in
  match Ev.open_conn e with
  | None -> Alcotest.fail "engine refused a connection"
  | Some id ->
      Ev.feed e id (S.Proto.encode_command (S.Proto.Creq (mk fname)) ^ "\n");
      let buf = Buffer.create 256 in
      let ticks = ref 0 in
      while
        (not (String.contains (Buffer.contents buf) '\n')) && !ticks < 1000
      do
        incr ticks;
        Ev.tick e;
        Buffer.add_string buf (Ev.take_output e id ~max:max_int)
      done;
      let line = List.hd (String.split_on_char '\n' (Buffer.contents buf)) in
      (match S.Proto.decode_reply line with
      | S.Proto.Decoded (S.Proto.Done d) ->
          Alcotest.(check string) "plain reply" fname d.r_fname
      | _ -> Alcotest.failf "expected a Done reply line, got: %s" line);
      settle e;
      S.Server.drain srv

(* ---------------- cancellation at statement boundaries ---------------- *)

(* Cancel after [k] statement frames; prove the decode aborted at a
   nearby boundary, the slot freed, the decoder stopped being called,
   and the journal holds exactly the partial prefix with no seal. *)
let cancel_at k ~total =
  let t = Lazy.force pipeline in
  let base = V.Pipeline.retrieval_decoder t in
  let calls = ref 0 in
  let decoder fv =
    incr calls;
    base fv
  in
  let dir = fresh_dir "cancel" in
  let srv = mk_server ~run_dir:dir ~decoder () in
  let e = Ev.create ~cfg:ecfg srv in
  let _, fname = Lazy.force busiest_fname in
  let cancel_line = S.Proto.encode_command S.Proto.Ccancel in
  let id = open_stream e fname in
  (* k = 0: cancel before any statement frame, right behind the request *)
  if k = 0 then Ev.feed e id (cancel_line ^ "\n");
  let on_stmt n = if n = k then Ev.feed e id (cancel_line ^ "\n") in
  let stmts, final = drive ~on_stmt e id in
  let at_stmt =
    match expect_final final with
    | S.Proto.Rejected (S.Proto.Cancelled { at_stmt }) -> at_stmt
    | r -> Alcotest.failf "expected cancelled, got: %s" (S.Proto.encode_reply r)
  in
  (* aborted at a statement boundary at or just past the cancel point,
     strictly before the end *)
  Alcotest.(check bool) "aborted at a nearby boundary" true
    (at_stmt >= k && at_stmt <= k + 2 && at_stmt < total);
  Alcotest.(check int) "every decoded statement was framed" at_stmt
    (List.length stmts);
  Alcotest.(check bool) "decoder stopped early" true (!calls <= at_stmt + 1);
  (* the slot freed and the accounting settled *)
  settle e;
  let h = S.Server.health srv in
  Alcotest.(check int) "slot freed" 0 h.S.Health.h_busy;
  Alcotest.(check int) "cancel counted" 1 h.S.Health.h_cancelled;
  Alcotest.(check int) "journal lag settled after cancel" 0
    h.S.Health.h_journal_lag;
  S.Server.drain srv;
  (* journal: Func_begin + exactly the partial statement prefix, no
     Func_end seal — replay drops the function *)
  let recovery = R.Journal.read ~path:(V.Pipeline.journal_path dir) () in
  let begins, seals, stmts_j =
    List.fold_left
      (fun (b, s, n) -> function
        | R.Journal.Func_begin f when f = fname -> (b + 1, s, n)
        | R.Journal.Func_end { fname = f; _ } when f = fname -> (b, s + 1, n)
        | R.Journal.Stmt st when st.R.Journal.j_fname = fname -> (b, s, n + 1)
        | _ -> (b, s, n))
      (0, 0, 0) recovery.R.Journal.r_records
  in
  Alcotest.(check int) "one Func_begin journaled" 1 begins;
  Alcotest.(check int) "no Func_end seal" 0 seals;
  Alcotest.(check int) "journal holds the partial prefix" at_stmt stmts_j;
  let _, completed = R.Journal.replay recovery.R.Journal.r_records in
  Alcotest.(check int) "replay drops the cancelled function" 0
    (List.length completed)

let test_cancel_boundaries () =
  let total, _ = Lazy.force busiest_fname in
  (* first, middle, last statement boundary *)
  cancel_at 0 ~total;
  if total >= 3 then cancel_at (total / 2) ~total;
  cancel_at (total - 1) ~total

(* Resume after a cancel regenerates exactly the cancelled work,
   bit-identical to a fresh run. *)
let test_cancel_then_resume_bit_identity () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let done_f = List.hd names in
  let _, cancel_f = Lazy.force busiest_fname in
  let done_f = if done_f = cancel_f then List.nth names 1 else done_f in
  (* reference: both functions on an ephemeral server *)
  let expect =
    let srv = mk_server () in
    List.iter
      (fun f ->
        match S.Server.request srv (mk f) with
        | S.Proto.Done _ -> ()
        | r -> Alcotest.failf "reference failed: %s" (S.Proto.encode_reply r))
      [ done_f; cancel_f ];
    let r =
      Test_durable.render
        (List.filter
           (fun (gf : V.Generate.gen_func) ->
             List.mem gf.V.Generate.gf_fname [ done_f; cancel_f ])
           (S.Server.functions srv))
    in
    S.Server.drain srv;
    r
  in
  let dir = fresh_dir "resume" in
  (let srv = mk_server ~run_dir:dir () in
   let e = Ev.create ~cfg:ecfg srv in
   (* one completed stream, one cancelled mid-decode *)
   let id1 = open_stream e done_f in
   (match expect_final (snd (drive e id1)) with
   | S.Proto.Done _ -> ()
   | r -> Alcotest.failf "first stream failed: %s" (S.Proto.encode_reply r));
   let id2 = open_stream e cancel_f in
   let cancel_line = S.Proto.encode_command S.Proto.Ccancel in
   let on_stmt n = if n = 1 then Ev.feed e id2 (cancel_line ^ "\n") in
   (match expect_final (snd (drive ~on_stmt e id2)) with
   | S.Proto.Rejected (S.Proto.Cancelled _) -> ()
   | r -> Alcotest.failf "expected cancelled: %s" (S.Proto.encode_reply r));
   settle e;
   S.Server.drain srv);
  (* resume: only the sealed function restores; the cancelled one
     regenerates and the result is bit-identical to the fresh run *)
  let srv = mk_server ~run_dir:dir ~resume:true () in
  Alcotest.(check int) "only the sealed function restored" 1
    (S.Server.resumed_functions srv);
  (match S.Server.request srv (mk cancel_f) with
  | S.Proto.Done d ->
      Alcotest.(check bool) "regenerated, not restored" false d.r_resumed
  | r -> Alcotest.failf "regenerate failed: %s" (S.Proto.encode_reply r));
  let got =
    Test_durable.render
      (List.filter
         (fun (gf : V.Generate.gen_func) ->
           List.mem gf.V.Generate.gf_fname [ done_f; cancel_f ])
         (S.Server.functions srv))
  in
  Alcotest.(check string) "resume-after-cancel bit-identical" expect got;
  S.Server.drain srv

(* The worker queue and the stream driver run one generation path:
   the same function list through [request] on one durable server and
   through [stream_run] on another gives equal replies and
   byte-identical journals. *)
let test_worker_stream_agree () =
  let names = fnames (Lazy.force pipeline) in
  let serve via =
    let dir = fresh_dir via in
    let srv = mk_server ~run_dir:dir () in
    let replies =
      List.map
        (fun f ->
          let reply =
            if via = "worker" then S.Server.request srv (mk f)
            else
              S.Server.stream_run srv (mk f)
                ~emit:(fun _ -> S.Proto.Wrote)
                ~cancelled:(fun () -> false)
          in
          (match reply with
          | S.Proto.Done _ -> ()
          | r -> Alcotest.failf "%s path failed: %s" via (S.Proto.encode_reply r));
          S.Proto.encode_reply reply)
        names
    in
    S.Server.drain srv;
    let ic = open_in_bin (V.Pipeline.journal_path dir) in
    let journal = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (replies, journal)
  in
  let w_replies, w_journal = serve "worker" in
  let s_replies, s_journal = serve "stream" in
  Alcotest.(check (list string)) "equal Done replies" w_replies s_replies;
  Alcotest.(check bool) "byte-identical journals" true (w_journal = s_journal)

(* ---------------- backpressure and deadlines ---------------- *)

(* A reader that stops draining is shed with a typed [Slow_reader]
   final; the loop and the other connections keep going. *)
let test_slow_reader_shed () =
  let srv = mk_server () in
  let cfg = { ecfg with Ev.ev_wbuf_limit = 1; ev_stall_ticks = 1 } in
  let e = Ev.create ~cfg srv in
  let _, fname = Lazy.force busiest_fname in
  let id = open_stream e fname in
  (* never read: the write buffer fills and stays full *)
  let ticks = ref 0 in
  while (Ev.stats e).Ev.ev_shed_slow = 0 && !ticks < 50 do
    incr ticks;
    Ev.tick e
  done;
  Alcotest.(check int) "one slow-reader shed" 1 (Ev.stats e).Ev.ev_shed_slow;
  (* the peer wakes up (before the drain-drop deadline) and finds only
     the typed rejection — the queued frames were dropped with it *)
  let out = Ev.take_output e id ~max:max_int in
  let finals =
    List.filter_map
      (fun line ->
        match S.Proto.decode_frame line with
        | S.Proto.Decoded (S.Proto.Ffinal r) -> Some r
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  (match finals with
  | [ S.Proto.Rejected (S.Proto.Slow_reader { limit = 1; _ }) ] -> ()
  | _ -> Alcotest.failf "expected exactly one Slow_reader final, got: %s" out);
  settle e;
  Alcotest.(check bool) "engine idle after shed" true (Ev.idle e);
  let h = S.Server.health srv in
  Alcotest.(check int) "no journal-lag drift after shed" 0
    h.S.Health.h_journal_lag;
  S.Server.drain srv

(* A connection that never completes a command line — silent or
   trickling bytes (slow loris) — is shed on the tick clock. *)
let test_idle_and_slow_loris_shed () =
  let srv = mk_server () in
  (* generous stall budget: the shed final must survive until the
     scripted peer reads it *)
  let cfg = { ecfg with Ev.ev_idle_ticks = 5; ev_stall_ticks = 100 } in
  let e = Ev.create ~cfg srv in
  let silent = Option.get (Ev.open_conn e) in
  let loris = Option.get (Ev.open_conn e) in
  for _ = 1 to 8 do
    (* the loris trickles one byte per tick and never finishes *)
    Ev.feed e loris "x";
    Ev.tick e;
    ignore (Ev.reap e)
  done;
  Alcotest.(check int) "both connections shed" 2 (Ev.stats e).Ev.ev_idle_closed;
  List.iter
    (fun id ->
      let out = Ev.take_output e id ~max:max_int in
      let line = List.hd (String.split_on_char '\n' out) in
      match S.Proto.decode_reply line with
      | S.Proto.Decoded (S.Proto.Rejected (S.Proto.Idle_timeout { ticks = 5 }))
        ->
          ()
      | _ -> Alcotest.failf "expected Idle_timeout, got: %s" line)
    [ silent; loris ];
  settle e;
  Alcotest.(check bool) "engine idle after sheds" true (Ev.idle e);
  S.Server.drain srv

(* slots=1: the second stream waits, takes the freed slot after the
   first is cancelled, and completes; past the wait cap sheds typed. *)
let test_slot_handoff_and_queue_full () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let srv = mk_server () in
  let cfg = { ecfg with Ev.ev_slots = 1; ev_wait_cap = 1 } in
  let e = Ev.create ~cfg srv in
  let _, busy = Lazy.force busiest_fname in
  let other =
    List.hd (List.filter (fun f -> f <> busy) names)
  in
  let third = List.hd (List.filter (fun f -> f <> busy && f <> other) names) in
  let id1 = open_stream e busy in
  Ev.tick e;
  (* slot taken *)
  let id2 = open_stream e other in
  let id3 = open_stream e third in
  (* the third admission overflows the wait queue: typed, immediate *)
  let _, final3 = drive ~max_ticks:5 e id3 in
  (match final3 with
  | Some (S.Proto.Rejected (S.Proto.Queue_full { cap = 1; _ })) -> ()
  | Some r -> Alcotest.failf "expected Queue_full: %s" (S.Proto.encode_reply r)
  | None -> Alcotest.fail "no queue-full final");
  (* cancel the slot holder: the waiter inherits the slot and finishes *)
  Ev.feed e id1 (S.Proto.encode_command S.Proto.Ccancel ^ "\n");
  (match expect_final (snd (drive e id1)) with
  | S.Proto.Rejected (S.Proto.Cancelled _) -> ()
  | r -> Alcotest.failf "expected cancelled: %s" (S.Proto.encode_reply r));
  (match expect_final (snd (drive e id2)) with
  | S.Proto.Done d ->
      Alcotest.(check string) "waiter completed on the freed slot" other
        d.r_fname
  | r -> Alcotest.failf "waiter failed: %s" (S.Proto.encode_reply r));
  settle e;
  let h = S.Server.health srv in
  Alcotest.(check bool) "all settled: lag 0, nothing lost" true
    (h.S.Health.h_journal_lag = 0 && h.S.Health.h_busy = 0);
  S.Server.drain srv

(* ---------------- peer-fault chaos (scripted) ---------------- *)

(* Half-close mid-stream: EOF propagates as a cancellation; the typed
   final still goes out (the peer may still be reading). *)
let test_half_close_cancels () =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let _, fname = Lazy.force busiest_fname in
  let id = open_stream e fname in
  let on_stmt n = if n = 1 then Ev.close_input e id in
  let _, final = drive ~on_stmt e id in
  (match expect_final final with
  | S.Proto.Rejected (S.Proto.Cancelled { at_stmt }) ->
      Alcotest.(check bool) "aborted near the half-close" true (at_stmt >= 1)
  | r -> Alcotest.failf "expected cancelled: %s" (S.Proto.encode_reply r));
  settle e;
  let h = S.Server.health srv in
  Alcotest.(check bool) "half-close settled: slot freed, lag 0" true
    (h.S.Health.h_busy = 0
    && h.S.Health.h_cancelled = 1
    && h.S.Health.h_journal_lag = 0);
  S.Server.drain srv

(* Hard reset mid-stream: output is discarded, the decode is cancelled,
   nothing leaks and nothing is double-decoded. *)
let test_peer_reset_cleans_up () =
  let srv = mk_server () in
  let e = Ev.create ~cfg:ecfg srv in
  let _, fname = Lazy.force busiest_fname in
  let id = open_stream e fname in
  let reset = ref false in
  let on_stmt n =
    if n = 1 then begin
      reset := true;
      Ev.peer_reset e id
    end
  in
  let _, final = drive ~max_ticks:100 ~on_stmt e id in
  Alcotest.(check bool) "reset happened" true !reset;
  Alcotest.(check bool) "no final reaches a reset peer" true (final = None);
  settle e;
  Alcotest.(check bool) "engine idle after reset" true (Ev.idle e);
  let h = S.Server.health srv in
  Alcotest.(check bool) "reset settled: slot freed, cancel counted" true
    (h.S.Health.h_busy = 0
    && h.S.Health.h_cancelled = 1
    && h.S.Health.h_journal_lag = 0);
  S.Server.drain srv

(* ---------------- send_all peer-gone hardening ---------------- *)

let test_send_all_peer_gone () =
  (* close the read side outright: the second write lands EPIPE, which
     must surface as the typed outcome, not an exception *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  let line = String.make 4096 'x' in
  let rec poke n =
    if n = 0 then Alcotest.fail "writes to a closed peer kept succeeding"
    else
      match S.Sock.send_all a line with
      | S.Sock.Peer_gone -> ()
      | S.Sock.Wrote -> poke (n - 1)
  in
  poke 64;
  Unix.close a;
  (* half-close: the peer shut down reading but the socket lives; the
     kernel buffer absorbs writes until it cannot, then EPIPE again *)
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.shutdown d Unix.SHUTDOWN_ALL;
  let rec poke2 n =
    if n = 0 then Alcotest.fail "writes after half-close kept succeeding"
    else
      match S.Sock.send_all c line with
      | S.Sock.Peer_gone -> ()
      | S.Sock.Wrote -> poke2 (n - 1)
  in
  poke2 64;
  Unix.close c;
  Unix.close d

(* ---------------- determinism ---------------- *)

(* The same scripted chaos schedule, run twice against fresh servers,
   must produce byte-identical decision/event logs and outputs. *)
let test_schedule_replays_byte_identically () =
  let t = Lazy.force pipeline in
  let names = fnames t in
  let _, busy = Lazy.force busiest_fname in
  let run () =
    let srv = mk_server () in
    let cfg = { ecfg with Ev.ev_slots = 1; ev_wbuf_limit = 1; ev_stall_ticks = 3 } in
    let e = Ev.create ~cfg srv in
    let outputs = Buffer.create 256 in
    (* conn 0 streams and is cancelled at its first statement; conn 1
       streams and never reads (shed); conn 2 waits, then completes *)
    let id0 = open_stream e busy in
    let id1 = open_stream e busy in
    let id2 = open_stream e (List.hd (List.filter (fun f -> f <> busy) names)) in
    let cancel_line = S.Proto.encode_command S.Proto.Ccancel in
    let on_stmt n = if n = 1 then Ev.feed e id0 (cancel_line ^ "\n") in
    let _, _ = drive ~max_ticks:500 ~on_stmt e id0 in
    for _ = 1 to 100 do
      Ev.tick e;
      ignore (Ev.reap e)
    done;
    Buffer.add_string outputs (Ev.take_output e id1 ~max:max_int);
    Buffer.add_string outputs (Ev.take_output e id2 ~max:max_int);
    settle e ~ticks:50;
    let log = Ev.log e in
    S.Server.drain srv;
    (log, Buffer.contents outputs)
  in
  let log1, out1 = run () in
  let log2, out2 = run () in
  Alcotest.(check string) "decision/event logs byte-identical" log1 log2;
  Alcotest.(check string) "wire outputs byte-identical" out1 out2

(* ---------------- select() front-end (real sockets) ---------------- *)

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vega_ev%d_%d.sock" (Unix.getpid ()) !n)

let live_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_evloop_socket_end_to_end () =
  let fds_before = live_fds () in
  let srv = mk_server () in
  let socket = sock_path () in
  let cfg = { Ev.default_config with Ev.ev_steps_per_tick = 1 } in
  let h = Ev.start ~cfg ~tick_s:0.002 srv ~path:socket in
  Alcotest.(check bool) "pings over the event loop" true
    (S.Sock.ping ~socket ());
  let _, busy = Lazy.force busiest_fname in
  let fname = Lazy.force second_fname in
  (* streamed first, while the fname is still fresh: statement frames
     then the final, in order (a cached fname would replay final-only) *)
  (match S.Sock.stream ~socket (mk fname) with
  | Error e -> Alcotest.failf "stream failed: %s" e
  | Ok frames -> (
      let stmts, finals =
        List.partition
          (function S.Proto.Fstmt _ -> true | S.Proto.Ffinal _ -> false)
          frames
      in
      Alcotest.(check bool) "streamed statements arrived" true
        (List.length stmts >= 1);
      List.iteri
        (fun i f ->
          match f with
          | S.Proto.Fstmt { f_index; _ } ->
              Alcotest.(check int) "socket frames in order" i f_index
          | S.Proto.Ffinal _ -> ())
        stmts;
      match finals with
      | [ S.Proto.Ffinal (S.Proto.Done d) ] ->
          Alcotest.(check string) "final over socket" fname d.r_fname
      | _ -> Alcotest.fail "expected exactly one Done final"));
  (* plain request parity — now served from the completed table *)
  (match S.Sock.request ~socket (mk fname) with
  | S.Proto.Done d -> Alcotest.(check string) "plain req" fname d.r_fname
  | r -> Alcotest.failf "plain request failed: %s" (S.Proto.encode_reply r));
  (* cancelled mid-decode over the wire: typed final. Uses the busiest
     (still uncached) fname so the decode has room to be cancelled. *)
  (match S.Sock.stream ~socket ~cancel_after:1 (mk busy) with
  | Error e -> Alcotest.failf "cancel stream failed: %s" e
  | Ok frames -> (
      match List.rev frames with
      | S.Proto.Ffinal (S.Proto.Rejected (S.Proto.Cancelled { at_stmt })) :: _
        ->
          Alcotest.(check bool) "aborted at a bounded boundary" true
            (at_stmt >= 1)
      | S.Proto.Ffinal r :: _ ->
          Alcotest.failf "expected cancelled final: %s" (S.Proto.encode_reply r)
      | _ -> Alcotest.fail "no final frame"));
  (* health and drain over the same loop *)
  (match S.Sock.health ~socket () with
  | Some hs ->
      Alcotest.(check int) "cancel visible in health" 1 hs.S.Health.h_cancelled
  | None -> Alcotest.fail "no health over the event loop");
  (match S.Sock.drain ~socket () with
  | Some hs ->
      Alcotest.(check bool) "drained" true
        (hs.S.Health.h_state = S.Health.Stopped)
  | None -> Alcotest.fail "no drain reply");
  Ev.wait h;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  Alcotest.(check int) "no file descriptors leaked" fds_before (live_fds ())

let suite =
  [
    QCheck_alcotest.to_alcotest test_frame_roundtrip;
    QCheck_alcotest.to_alcotest test_frame_truncation;
    Alcotest.test_case "engine: stream basic" `Quick test_stream_basic;
    Alcotest.test_case "engine: plain request" `Quick
      test_plain_request_on_engine;
    Alcotest.test_case "cancel at first/middle/last boundary" `Quick
      test_cancel_boundaries;
    Alcotest.test_case "resume after cancel is bit-identical" `Quick
      test_cancel_then_resume_bit_identity;
    Alcotest.test_case "worker and stream paths agree" `Quick
      test_worker_stream_agree;
    Alcotest.test_case "slow reader shed with typed rejection" `Quick
      test_slow_reader_shed;
    Alcotest.test_case "idle and slow-loris shed on the tick clock" `Quick
      test_idle_and_slow_loris_shed;
    Alcotest.test_case "slot handoff and wait-cap shed" `Quick
      test_slot_handoff_and_queue_full;
    Alcotest.test_case "half-close propagates as cancellation" `Quick
      test_half_close_cancels;
    Alcotest.test_case "peer reset cleans up" `Quick test_peer_reset_cleans_up;
    Alcotest.test_case "send_all: peer gone is typed" `Quick
      test_send_all_peer_gone;
    Alcotest.test_case "chaos schedule replays byte-identically" `Quick
      test_schedule_replays_byte_identically;
    Alcotest.test_case "event loop over real sockets" `Quick
      test_evloop_socket_end_to_end;
  ]
