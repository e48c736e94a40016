(* SARIF 2.1.0 and plain-JSON renderers.  No JSON library is available
   here (same constraint as lib/core/journal.ml), so the writer is
   hand-rolled over Buffer with Journal's string escaper; output is
   deterministic — stable key order,
   diagnostics pre-sorted by the caller — so golden-file tests and CI
   artifact diffs stay byte-stable. *)

let quoted s = "\"" ^ Journal.json_escape s ^ "\""

(* Minimal combinator layer: values are pre-rendered strings. *)
let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> quoted k ^ ":" ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

let sarif_level = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"
  | Diagnostic.Info -> "note"

let tool_name = "dpa-lint"
let information_uri =
  "https://github.com/diffprop/diffprop#static-testability-linter"

let region (span : Bench_format.span) =
  obj
    [
      ("startLine", string_of_int span.Bench_format.line);
      ("startColumn", string_of_int span.Bench_format.start_col);
      ("endColumn", string_of_int span.Bench_format.end_col);
    ]

let result_location ~default_uri (d : Diagnostic.t) =
  let uri = Option.value d.Diagnostic.location.Diagnostic.file ~default:default_uri in
  let physical =
    ("artifactLocation", obj [ ("uri", quoted uri) ])
    ::
    (match d.Diagnostic.location.Diagnostic.span with
    | Some span -> [ ("region", region span) ]
    | None -> [])
  in
  obj [ ("physicalLocation", obj physical) ]

let result ~default_uri (d : Diagnostic.t) =
  let properties =
    (match d.Diagnostic.location.Diagnostic.net with
    | Some net -> [ ("net", quoted net) ]
    | None -> [])
    @ (match d.Diagnostic.claims with
      | [] -> []
      | claims ->
        [
          ( "redundantFaults",
            arr
              (List.map
                 (fun (net, v) ->
                   obj
                     [
                       ("net", quoted net);
                       ("stuckAt", string_of_int (Bool.to_int v));
                     ])
                 claims) );
        ])
    @
    match d.Diagnostic.verified with
    | Some v -> [ ("verifiedByExactEngine", if v then "true" else "false") ]
    | None -> []
  in
  obj
    ([
       ("ruleId", quoted d.Diagnostic.rule);
       ("level", quoted (sarif_level d.Diagnostic.severity));
       ("message", obj [ ("text", quoted d.Diagnostic.message) ]);
       ("locations", arr [ result_location ~default_uri d ]);
       ( "partialFingerprints",
         obj [ ("dpaLint/v1", quoted (Diagnostic.fingerprint d)) ] );
     ]
    @ if properties = [] then [] else [ ("properties", obj properties) ])

let rule_descriptor (r : Lint.rule) =
  obj
    [
      ("id", quoted r.Lint.id);
      ("name", quoted r.Lint.name);
      ("shortDescription", obj [ ("text", quoted r.Lint.summary) ]);
      ( "defaultConfiguration",
        obj [ ("level", quoted (sarif_level r.Lint.default_severity)) ] );
      ( "properties",
        obj [ ("tier", quoted (Lint.tier_to_string r.Lint.tier)) ] );
    ]

let render ?(tool_version = "1.0.0") ~uri diags =
  let driver =
    obj
      [
        ("name", quoted tool_name);
        ("version", quoted tool_version);
        ("informationUri", quoted information_uri);
        ("rules", arr (List.map rule_descriptor Lint.rules));
      ]
  in
  let run =
    obj
      [
        ("tool", obj [ ("driver", driver) ]);
        ("results", arr (List.map (result ~default_uri:uri) diags));
      ]
  in
  obj
    [
      ("version", quoted "2.1.0");
      ("$schema", quoted "https://json.schemastore.org/sarif-2.1.0.json");
      ("runs", arr [ run ]);
    ]

(* Plain-JSON sibling: one flat object per diagnostic, the shape the
   CI gate and scripting consumers read without a SARIF parser. *)
let render_json ~uri diags =
  let diag (d : Diagnostic.t) =
    obj
      ([
         ("rule", quoted d.Diagnostic.rule);
         ("severity", quoted (Diagnostic.severity_to_string d.Diagnostic.severity));
         ("message", quoted d.Diagnostic.message);
         ("file", quoted (Option.value d.Diagnostic.location.Diagnostic.file ~default:uri));
       ]
      @ (match d.Diagnostic.location.Diagnostic.net with
        | Some net -> [ ("net", quoted net) ]
        | None -> [])
      @ (match d.Diagnostic.location.Diagnostic.span with
        | Some sp ->
          [
            ("line", string_of_int sp.Bench_format.line);
            ("column", string_of_int sp.Bench_format.start_col);
          ]
        | None -> [])
      @ (match d.Diagnostic.claims with
        | [] -> []
        | claims ->
          [
            ( "claims",
              arr
                (List.map
                   (fun (net, v) ->
                     obj
                       [
                         ("net", quoted net);
                         ("stuckAt", string_of_int (Bool.to_int v));
                       ])
                   claims) );
          ])
      @
      match d.Diagnostic.verified with
      | Some v -> [ ("verified", if v then "true" else "false") ]
      | None -> [])
  in
  arr (List.map diag diags)
