(* Tests for the crash-safe durability layer: the checksummed wire
   format, the write-ahead journal (append, torn-tail recovery, replay),
   the supervisor (deadline, backoff, circuit breaker), and kill/resume
   determinism over the real pipeline. *)

module V = Vega
module R = Vega_robust
module J = R.Journal

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vega_durable_%d_%s%d" (Unix.getpid ()) name !n)
    in
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    d

(* ---------------- wire format ---------------- *)

let qcheck_wire_roundtrip =
  let field =
    QCheck.Gen.(
      string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 30))
  in
  QCheck.Test.make ~name:"wire line round-trips any fields" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) field))
    (fun fields ->
      (* a lone empty field is folded into the empty record by design *)
      let canonical = if fields = [ "" ] then [] else fields in
      R.Wire.decode_line (R.Wire.encode_line fields) = Some canonical)

let qcheck_wire_corruption =
  let field = QCheck.Gen.(string_size ~gen:printable (int_range 1 12)) in
  QCheck.Test.make ~name:"mutated wire line never decodes" ~count:200
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 5) field) (int_range 0 1000)))
    (fun (fields, at) ->
      let line = R.Wire.encode_line fields in
      let i = at mod String.length line in
      let b = Bytes.of_string line in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      let mutated = Bytes.to_string b in
      mutated = line || R.Wire.decode_line mutated <> Some fields)

let qcheck_float_field =
  QCheck.Test.make ~name:"float fields are bit-exact" ~count:500
    QCheck.(float)
    (fun x ->
      match R.Wire.float_of_field (R.Wire.float_to_field x) with
      | Some y -> Int64.bits_of_float y = Int64.bits_of_float x || (Float.is_nan x && Float.is_nan y)
      | None -> false)

let test_wire_specials () =
  List.iter
    (fun x ->
      match R.Wire.float_of_field (R.Wire.float_to_field x) with
      | Some y ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trips %h" x)
            true
            (Int64.bits_of_float y = Int64.bits_of_float x
            || (Float.is_nan x && Float.is_nan y))
      | None -> Alcotest.failf "failed to parse %h back" x)
    [ 0.0; -0.0; 1.0; 0.45; Float.nan; Float.infinity; Float.neg_infinity;
      Float.min_float; Float.max_float; 4.9e-324 ];
  Alcotest.(check bool) "bools round-trip" true
    (R.Wire.bool_of_field (R.Wire.bool_to_field true) = Some true
    && R.Wire.bool_of_field (R.Wire.bool_to_field false) = Some false)

(* ---------------- journal records ---------------- *)

let sample_stmt =
  {
    J.j_fname = "getRelocType";
    j_col = 2;
    j_line = 7;
    j_inst = -1;
    j_score = 0.875;
    j_tokens = [ "return"; "ELF::R_RISCV_32"; ";"; "with\ttab"; "nl\n" ];
    j_shape_ok = true;
    j_level = R.Degrade.Retrieval_fallback;
  }

let sample_records =
  [
    J.Header { version = J.version; target = "RISCV"; fingerprint = "abc" };
    J.Func_begin "getRelocType";
    J.Stmt sample_stmt;
    J.Stmt { sample_stmt with J.j_tokens = []; j_score = Float.nan };
    J.Func_end { fname = "getRelocType"; confidence = 0.95; n_stmts = 2 };
    J.Fault_ev
      {
        stage = "primary";
        fault = R.Fault.Deadline_exceeded { fname = "f"; budget_ms = 30_000 };
        backtrace = "Raised at Foo.bar in file \"foo.ml\", line 3";
      };
  ]

let record_eq a b =
  (* structural equality except NaN scores compare equal: the wire
     format spells every NaN "nan", so only NaN-ness survives *)
  match (a, b) with
  | J.Stmt x, J.Stmt y ->
      { x with J.j_score = 0.0 } = { y with J.j_score = 0.0 }
      && (Int64.bits_of_float x.J.j_score = Int64.bits_of_float y.J.j_score
         || (Float.is_nan x.J.j_score && Float.is_nan y.J.j_score))
  | _ -> a = b

let test_journal_record_roundtrip () =
  List.iter
    (fun r ->
      match J.decode (J.encode r) with
      | Some r' ->
          Alcotest.(check bool) "record round-trips" true (record_eq r r')
      | None -> Alcotest.failf "undecodable: %s" (J.encode r))
    sample_records;
  (* every fault constructor survives the journal *)
  List.iter
    (fun fault ->
      let r = J.Fault_ev { stage = "s"; fault; backtrace = "" } in
      Alcotest.(check bool)
        (Printf.sprintf "fault %s round-trips" (R.Fault.to_string fault))
        true
        (match J.decode (J.encode r) with Some r' -> r' = r | None -> false))
    Test_robust.sample_faults

let test_journal_write_read_tear () =
  let dir = fresh_dir "journal" in
  let path = Filename.concat dir "journal.log" in
  if Sys.file_exists path then Sys.remove path;
  let header = List.hd sample_records in
  let w = J.create ~path header in
  List.iter (J.append w) (List.tl sample_records);
  Alcotest.(check int) "written counts all records"
    (List.length sample_records) (J.written w);
  J.close w;
  let rc = J.read ~path () in
  Alcotest.(check bool) "clean read is not torn" false rc.J.r_torn;
  Alcotest.(check int) "every record back" (List.length sample_records)
    (List.length rc.J.r_records);
  List.iter2
    (fun a b -> Alcotest.(check bool) "same record" true (record_eq a b))
    sample_records rc.J.r_records;
  (* tear the final record mid-write: reader recovers the prefix *)
  J.tear ~path;
  let rc = J.read ~path () in
  Alcotest.(check bool) "torn tail detected" true rc.J.r_torn;
  Alcotest.(check int) "longest valid prefix survives"
    (List.length sample_records - 1)
    (List.length rc.J.r_records);
  (* compaction makes the journal clean again *)
  J.rewrite ~path rc.J.r_records;
  let rc2 = J.read ~path () in
  Alcotest.(check bool) "compacted journal is clean" false rc2.J.r_torn;
  Alcotest.(check int) "compaction keeps the prefix"
    (List.length rc.J.r_records)
    (List.length rc2.J.r_records);
  (* appending after recovery extends the prefix *)
  let w = J.open_append ~path () in
  J.append w (J.Func_begin "next");
  J.close w;
  let rc3 = J.read ~path () in
  Alcotest.(check bool) "clean after append" false rc3.J.r_torn;
  Alcotest.(check int) "append extends"
    (List.length rc2.J.r_records + 1)
    (List.length rc3.J.r_records);
  (* a missing file reads as empty, never raises *)
  let rc4 = J.read ~path:(Filename.concat dir "nope.log") () in
  Alcotest.(check bool) "missing file is empty, not torn" true
    (rc4.J.r_records = [] && not rc4.J.r_torn)

let test_journal_oversize_line () =
  (* a multi-megabyte line in the journal (corruption, or a runaway
     writer) must decode to a typed Record_oversize fault and bounded
     allocation, never an unbounded read *)
  let dir = fresh_dir "oversize" in
  let path = Filename.concat dir "journal.log" in
  let header = List.hd sample_records in
  let w = J.create ~path header in
  List.iter (J.append w) (List.tl sample_records);
  J.close w;
  (* splice a 3 MiB junk line into the middle, then a valid-looking
     tail: recovery must stop at the oversize record *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc (String.make (3 * 1024 * 1024) 'A');
  output_string oc "\n";
  output_string oc (J.encode (J.Func_begin "after-oversize"));
  output_string oc "\n";
  close_out oc;
  let report = R.Report.create () in
  let rc = J.read ~report ~path () in
  Alcotest.(check bool) "oversize tail reads as torn" true rc.J.r_torn;
  Alcotest.(check int) "valid prefix survives"
    (List.length sample_records)
    (List.length rc.J.r_records);
  Alcotest.(check int) "typed oversize fault recorded" 1
    (R.Report.count_class report R.Fault.Coversize);
  (* the bound is configurable: a tiny limit rejects even valid lines *)
  let report2 = R.Report.create () in
  let rc2 = J.read ~report:report2 ~limit:8 ~path () in
  Alcotest.(check int) "tiny limit keeps nothing" 0
    (List.length rc2.J.r_records);
  Alcotest.(check bool) "tiny limit records faults" true
    (R.Report.count_class report2 R.Fault.Coversize > 0);
  (* compaction over the recovered prefix scrubs the junk *)
  J.rewrite ~path rc.J.r_records;
  let rc3 = J.read ~path () in
  Alcotest.(check bool) "compacted clean" false rc3.J.r_torn;
  Alcotest.(check int) "compaction keeps the prefix"
    (List.length sample_records)
    (List.length rc3.J.r_records)

let test_journal_kill_at () =
  let dir = fresh_dir "kill" in
  let path = Filename.concat dir "journal.log" in
  if Sys.file_exists path then Sys.remove path;
  let header = List.hd sample_records in
  (match
     let w = J.create ~kill_at:3 ~path header in
     List.iter (J.append w) (List.tl sample_records);
     `Completed
   with
  | `Completed -> Alcotest.fail "expected the simulated crash"
  | exception J.Killed n ->
      Alcotest.(check int) "killed on the armed record" 3 n);
  let rc = J.read ~path () in
  Alcotest.(check int) "all records durable at the crash point" 3
    (List.length rc.J.r_records);
  Alcotest.(check bool) "crash after a flush leaves no torn tail" false
    rc.J.r_torn

let test_journal_replay () =
  let header =
    J.Header { version = J.version; target = "T"; fingerprint = "fp" }
  in
  let stmt fname line =
    J.Stmt { sample_stmt with J.j_fname = fname; j_line = line }
  in
  let records =
    [
      header;
      (* sealed function: kept *)
      J.Func_begin "f";
      stmt "f" 0;
      stmt "f" 1;
      J.Func_end { fname = "f"; confidence = 1.0; n_stmts = 2 };
      (* fault records never affect replay *)
      J.Fault_ev
        {
          stage = "s";
          fault = R.Fault.Sim_trap { message = "x" };
          backtrace = "";
        };
      (* partial trail without a seal: dropped *)
      J.Func_begin "g";
      stmt "g" 0;
      (* seal disagreeing with its trail: dropped *)
      J.Func_begin "h";
      stmt "h" 0;
      J.Func_end { fname = "h"; confidence = 1.0; n_stmts = 5 };
      (* a restarted function keeps only the latest trail *)
      J.Func_begin "i";
      stmt "i" 0;
      stmt "i" 1;
      J.Func_begin "i";
      stmt "i" 9;
      J.Func_end { fname = "i"; confidence = 0.5; n_stmts = 1 };
    ]
  in
  let hdr, completed = J.replay records in
  Alcotest.(check bool) "header surfaced" true (hdr = Some header);
  Alcotest.(check (list string)) "only consistently sealed functions"
    [ "f"; "i" ]
    (List.map (fun c -> c.J.c_fname) completed);
  let f = List.hd completed and i = List.nth completed 1 in
  Alcotest.(check int) "f keeps both statements in order" 2
    (List.length f.J.c_stmts);
  Alcotest.(check (list int)) "generation order preserved" [ 0; 1 ]
    (List.map (fun s -> s.J.j_line) f.J.c_stmts);
  Alcotest.(check (list int)) "restart resets the trail" [ 9 ]
    (List.map (fun s -> s.J.j_line) i.J.c_stmts)

(* ---------------- supervisor ---------------- *)

let virtual_sup ?(cfg = R.Supervisor.default_config) () =
  let now = ref 0.0 in
  let slept = ref 0.0 in
  let sup =
    R.Supervisor.create
      ~now:(fun () -> !now)
      ~sleep:(fun d -> slept := !slept +. d)
      cfg
  in
  (sup, now, slept)

let test_backoff_determinism () =
  let cfg = R.Supervisor.default_config in
  let delays sup = List.init 8 (R.Supervisor.backoff_delay sup) in
  let s1, _, _ = virtual_sup () and s2, _, _ = virtual_sup () in
  let d1 = delays s1 and d2 = delays s2 in
  Alcotest.(check (list (float 0.0))) "equal seeds, equal jitter" d1 d2;
  List.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "delay %d within bounds" i)
        true
        (d > 0.0 && d <= cfg.R.Supervisor.backoff_max_s))
    d1;
  (* exponential growth below the cap *)
  Alcotest.(check bool) "grows before the cap" true
    (List.nth d1 1 > List.nth d1 0);
  let s3, _, _ =
    virtual_sup ~cfg:{ cfg with R.Supervisor.jitter_seed = 999 } ()
  in
  Alcotest.(check bool) "different seed shifts jitter" true (delays s3 <> d1)

let decoder_fault =
  R.Fault.Fault
    (R.Fault.Decoder_failure { fname = "f"; stage = "s"; message = "boom" })

let test_fork_jitter_streams () =
  let sup, _, _ = virtual_sup () in
  let delays s = List.init 6 (R.Supervisor.backoff_delay s) in
  (* forking the same index twice yields the same jitter stream *)
  let a = delays (R.Supervisor.fork ~index:1 sup) in
  let b = delays (R.Supervisor.fork ~index:1 sup) in
  Alcotest.(check (list (float 0.0))) "same index, same stream" a b;
  (* distinct worker indices decorrelate: no two streams collide *)
  let streams =
    List.map
      (fun w -> delays (R.Supervisor.fork ~index:w sup))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "four workers, four distinct streams" 4
    (List.length (List.sort_uniq compare streams));
  (* index 0 is the sequential path: it inherits the base stream *)
  Alcotest.(check (list (float 0.0))) "index 0 inherits the base stream"
    (delays sup) (List.hd streams)

let test_breaker_transitions () =
  let cfg =
    {
      R.Supervisor.default_config with
      R.Supervisor.breaker_threshold = 2;
      breaker_cooldown = 3;
      max_retries = 0;
      func_deadline_s = 1000.0;
    }
  in
  let sup, _, _ = virtual_sup ~cfg () in
  R.Supervisor.start_function sup "f";
  let calls = ref 0 in
  let failing () =
    incr calls;
    raise decoder_fault
  in
  let expect_fault cls thunk =
    match R.Supervisor.guard sup thunk with
    | exception R.Fault.Fault f ->
        Alcotest.(check string) "fault class" (R.Fault.cls_name cls)
          (R.Fault.cls_name (R.Fault.cls_of f))
    | _ -> Alcotest.fail "expected a fault"
  in
  Alcotest.(check bool) "starts closed" true
    (R.Supervisor.breaker_state sup = R.Supervisor.Closed 0);
  expect_fault R.Fault.Cdecoder failing;
  Alcotest.(check bool) "one consecutive failure" true
    (R.Supervisor.breaker_state sup = R.Supervisor.Closed 1);
  expect_fault R.Fault.Cdecoder failing;
  Alcotest.(check bool) "opens at the threshold" true
    (R.Supervisor.breaker_state sup = R.Supervisor.Open 3);
  let before = !calls in
  expect_fault R.Fault.Cbreaker failing;
  expect_fault R.Fault.Cbreaker failing;
  Alcotest.(check int) "open breaker never calls the decoder" before !calls;
  Alcotest.(check int) "skips counted" 2
    (R.Supervisor.stats sup).R.Supervisor.sup_breaker_skips;
  (* cooldown expiry: the next guarded call is a half-open probe *)
  expect_fault R.Fault.Cdecoder failing;
  Alcotest.(check bool) "failed probe re-opens" true
    (R.Supervisor.breaker_state sup = R.Supervisor.Open 3);
  Alcotest.(check int) "re-open counted" 2
    (R.Supervisor.stats sup).R.Supervisor.sup_breaker_opened;
  (* drain the cooldown again, then probe with a healthy decoder *)
  expect_fault R.Fault.Cbreaker failing;
  expect_fault R.Fault.Cbreaker failing;
  Alcotest.(check int) "successful probe closes" 7
    (R.Supervisor.guard sup (fun () -> 7));
  Alcotest.(check bool) "closed after recovery" true
    (R.Supervisor.breaker_state sup = R.Supervisor.Closed 0)

let test_retry_backoff () =
  let cfg =
    {
      R.Supervisor.default_config with
      R.Supervisor.max_retries = 2;
      breaker_threshold = 100;
      func_deadline_s = 1000.0;
    }
  in
  let sup, _, slept = virtual_sup ~cfg () in
  R.Supervisor.start_function sup "f";
  let attempts = ref 0 in
  (* fails twice, then succeeds: retries absorb the transient fault *)
  let flaky () =
    incr attempts;
    if !attempts < 3 then raise decoder_fault else !attempts
  in
  Alcotest.(check int) "third attempt wins" 3 (R.Supervisor.guard sup flaky);
  Alcotest.(check int) "two retries recorded" 2
    (R.Supervisor.stats sup).R.Supervisor.sup_retried;
  Alcotest.(check bool) "backoff slept between attempts" true (!slept > 0.0);
  Alcotest.(check bool) "success resets the failure streak" true
    (R.Supervisor.breaker_state sup = R.Supervisor.Closed 0);
  (* non-retryable faults fail straight through *)
  let sim_attempts = ref 0 in
  (match
     R.Supervisor.guard sup (fun () ->
         incr sim_attempts;
         raise (R.Fault.Fault (R.Fault.Sim_trap { message = "t" })))
   with
  | exception R.Fault.Fault (R.Fault.Sim_trap _) -> ()
  | _ -> Alcotest.fail "expected the trap to surface");
  Alcotest.(check int) "no retry on a non-retryable fault" 1 !sim_attempts

let test_deadline () =
  let cfg =
    { R.Supervisor.default_config with R.Supervisor.func_deadline_s = 5.0 }
  in
  let sup, now, _ = virtual_sup ~cfg () in
  R.Supervisor.start_function sup "slowFn";
  Alcotest.(check int) "within budget" 1 (R.Supervisor.guard sup (fun () -> 1));
  now := 6.0;
  (match R.Supervisor.guard sup (fun () -> 2) with
  | exception
      R.Fault.Fault
        (R.Fault.Deadline_exceeded { fname = "slowFn"; budget_ms = 5000 }) ->
      ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected the deadline fault");
  Alcotest.(check int) "deadline hit counted" 1
    (R.Supervisor.stats sup).R.Supervisor.sup_deadline_hits;
  (* the next function gets a fresh budget *)
  R.Supervisor.end_function sup;
  R.Supervisor.start_function sup "nextFn";
  Alcotest.(check int) "fresh budget" 3 (R.Supervisor.guard sup (fun () -> 3))

(* ---------------- durable runs over the real pipeline ---------------- *)

let render (gfs : V.Generate.gen_func list) =
  String.concat "\n"
    (List.map
       (fun (gf : V.Generate.gen_func) ->
         Printf.sprintf "%s %h [%s]" gf.V.Generate.gf_fname
           gf.V.Generate.gf_confidence
           (String.concat ";"
              (List.map
                 (fun (s : V.Generate.gen_stmt) ->
                   Printf.sprintf "%d,%d,%d,%h,%b,%s,%s" s.V.Generate.g_col
                     s.V.Generate.g_line s.V.Generate.g_inst
                     s.V.Generate.g_score s.V.Generate.g_shape_ok
                     (R.Degrade.name s.V.Generate.g_level)
                     (String.concat " " s.V.Generate.g_tokens))
                 gf.V.Generate.gf_stmts)))
       gfs)

let test_worker_jitter_domains () =
  (* a transiently flaky decoder exercises retry + backoff on every
     worker; 1, 2 and 4 domains must render bit-identically even though
     each worker draws from its own jitter stream *)
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  (* failure is a pure function of the feature vector (never of call
     order), and the breaker is disabled, so which statements degrade is
     independent of how statements are partitioned across workers *)
  let flaky fv =
    if Hashtbl.hash fv mod 5 = 0 then raise decoder_fault else decoder fv
  in
  let run domains =
    let cfg =
      {
        R.Supervisor.default_config with
        R.Supervisor.func_deadline_s = 1e9;
        breaker_threshold = max_int;
      }
    in
    let sup, _, _ = virtual_sup ~cfg () in
    let out =
      render
        (V.Pipeline.generate_backend ~fallback:decoder ~sup ~domains t
           ~target:"RISCV" ~decoder:flaky)
    in
    (out, (R.Supervisor.stats sup).R.Supervisor.sup_retried)
  in
  let r1, retried1 = run 1 in
  Alcotest.(check bool) "retries (and so backoff jitter) exercised" true
    (retried1 > 0);
  let r2, _ = run 2 and r4, _ = run 4 in
  Alcotest.(check string) "2 domains identical to 1" r1 r2;
  Alcotest.(check string) "4 domains identical to 1" r1 r4

let test_durable_matches_plain () =
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let dir = fresh_dir "plain" in
  let plain = V.Pipeline.generate_backend t ~target:"RISCV" ~decoder in
  match
    V.Pipeline.generate_backend_durable ~run_dir:dir t ~target:"RISCV" ~decoder
  with
  | Error e -> Alcotest.failf "durable run failed: %s" e
  | Ok o ->
      Alcotest.(check string) "journaling changes nothing" (render plain)
        (render o.V.Pipeline.d_funcs);
      Alcotest.(check int) "nothing resumed on a fresh run" 0
        o.V.Pipeline.d_resumed;
      Alcotest.(check bool) "journal records the whole run" true
        (o.V.Pipeline.d_records > List.length plain);
      (* second fresh run in the same dir must refuse *)
      (match
         V.Pipeline.generate_backend_durable ~run_dir:dir t ~target:"RISCV"
           ~decoder
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "fresh run over an existing journal accepted");
      (* resuming a complete run restores everything, generates nothing *)
      (match
         V.Pipeline.generate_backend_durable ~resume:true ~run_dir:dir t
           ~target:"RISCV" ~decoder
       with
      | Error e -> Alcotest.failf "resume of a complete run failed: %s" e
      | Ok o2 ->
          Alcotest.(check int) "everything restored"
            (List.length plain)
            o2.V.Pipeline.d_resumed;
          Alcotest.(check int) "nothing regenerated" 0 o2.V.Pipeline.d_generated;
          Alcotest.(check string) "restored run identical" (render plain)
            (render o2.V.Pipeline.d_funcs))

let test_kill_resume_identical () =
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let ref_dir = fresh_dir "ref" in
  let expect, total =
    match
      V.Pipeline.generate_backend_durable ~run_dir:ref_dir t ~target:"RISCV"
        ~decoder
    with
    | Error e -> Alcotest.failf "reference run failed: %s" e
    | Ok o -> (render o.V.Pipeline.d_funcs, o.V.Pipeline.d_records)
  in
  let dir = fresh_dir "killmid" in
  let k = total / 2 in
  (match
     V.Pipeline.generate_backend_durable ~kill_at:k ~run_dir:dir t
       ~target:"RISCV" ~decoder
   with
  | exception J.Killed n -> Alcotest.(check int) "killed mid-run" k n
  | Ok _ -> Alcotest.fail "expected the simulated crash"
  | Error e -> Alcotest.failf "killed run setup failed: %s" e);
  (* tear the last durable record mid-write, as a real crash would *)
  J.tear ~path:(V.Pipeline.journal_path dir);
  match
    V.Pipeline.generate_backend_durable ~resume:true ~run_dir:dir t
      ~target:"RISCV" ~decoder
  with
  | Error e -> Alcotest.failf "resume failed: %s" e
  | Ok o ->
      Alcotest.(check bool) "torn record recovered" true o.V.Pipeline.d_torn;
      Alcotest.(check bool) "some functions restored" true
        (o.V.Pipeline.d_resumed > 0);
      Alcotest.(check bool) "some functions regenerated" true
        (o.V.Pipeline.d_generated > 0);
      Alcotest.(check string) "bit-identical to the uninterrupted run" expect
        (render o.V.Pipeline.d_funcs)

let test_durable_breaker_permafail () =
  let t = Lazy.force Test_robust.pipeline in
  let decoder = V.Pipeline.retrieval_decoder t in
  let cfg =
    {
      R.Supervisor.default_config with
      R.Supervisor.breaker_threshold = 3;
      breaker_cooldown = 4;
      max_retries = 1;
      func_deadline_s = 1000.0;
    }
  in
  let sup, _, slept = virtual_sup ~cfg () in
  let calls = ref 0 in
  let permafail _fv =
    incr calls;
    raise decoder_fault
  in
  let report = R.Report.create () in
  let dir = fresh_dir "permafail" in
  match
    V.Pipeline.generate_backend_durable ~fallback:decoder ~report ~sup
      ~run_dir:dir t ~target:"RISCV" ~decoder:permafail
  with
  | Error e -> Alcotest.failf "durable permafail run errored: %s" e
  | Ok o ->
      let st = R.Supervisor.stats sup in
      Alcotest.(check bool) "breaker opened" true
        (st.R.Supervisor.sup_breaker_opened > 0);
      Alcotest.(check bool) "open breaker skipped decode calls" true
        (st.R.Supervisor.sup_breaker_skips > 0);
      let stmts =
        List.concat_map
          (fun (gf : V.Generate.gen_func) -> gf.V.Generate.gf_stmts)
          o.V.Pipeline.d_funcs
      in
      Alcotest.(check bool) "run produced statements" true (stmts <> []);
      List.iter
        (fun (s : V.Generate.gen_stmt) ->
          Alcotest.(check bool) "every statement on a fallback rung" true
            (match s.V.Generate.g_level with
            | R.Degrade.Retrieval_fallback | R.Degrade.Template_default
            | R.Degrade.Omitted ->
                true
            | _ -> false))
        stmts;
      Alcotest.(check bool) "decode attempts bounded by the breaker" true
        (!calls < 2 * List.length stmts);
      Alcotest.(check bool) "accumulated backoff bounded" true
        (!slept
        <= (float_of_int st.R.Supervisor.sup_retried
           *. cfg.R.Supervisor.backoff_max_s)
           +. 1e-9);
      (* breaker faults were journaled ahead with everything else *)
      let rc = J.read ~path:(V.Pipeline.journal_path dir) () in
      Alcotest.(check bool) "breaker-open faults journaled" true
        (List.exists
           (function
             | J.Fault_ev { fault = R.Fault.Breaker_open _; _ } -> true
             | _ -> false)
           rc.J.r_records)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_wire_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_wire_corruption;
    QCheck_alcotest.to_alcotest qcheck_float_field;
    Alcotest.test_case "wire special floats" `Quick test_wire_specials;
    Alcotest.test_case "journal record round-trip" `Quick
      test_journal_record_roundtrip;
    Alcotest.test_case "journal write/read/tear" `Quick
      test_journal_write_read_tear;
    Alcotest.test_case "journal oversize line" `Quick
      test_journal_oversize_line;
    Alcotest.test_case "journal kill-at" `Quick test_journal_kill_at;
    Alcotest.test_case "fork jitter streams" `Quick test_fork_jitter_streams;
    Alcotest.test_case "worker jitter domains 1/2/4" `Quick
      test_worker_jitter_domains;
    Alcotest.test_case "journal replay" `Quick test_journal_replay;
    Alcotest.test_case "backoff determinism" `Quick test_backoff_determinism;
    Alcotest.test_case "breaker transitions" `Quick test_breaker_transitions;
    Alcotest.test_case "retry with backoff" `Quick test_retry_backoff;
    Alcotest.test_case "per-function deadline" `Quick test_deadline;
    Alcotest.test_case "durable run matches plain" `Quick
      test_durable_matches_plain;
    Alcotest.test_case "kill/resume bit-identical" `Quick
      test_kill_resume_identical;
    Alcotest.test_case "breaker permafail durable" `Quick
      test_durable_breaker_permafail;
  ]
