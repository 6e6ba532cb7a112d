// Line-oriented text command protocol over the workbook service.
//
// One command per line; BATCH is the one multi-line form (a header with
// an edit count, followed by that many edit lines). Responses are single
// "OK ...", "VALUE ...", or "ERR <Code>: ..." lines, except STATS, which
// returns a multi-line report. The grammar (docs/architecture.md):
//
//   OPEN <session>                    create or attach (recovers a WAL)
//   LOAD <session> <path>             read a binary snapshot or .tsheet
//                                     file (+ WAL tail)
//   SAVE <session> [path]             write a binary snapshot to the
//                                     bound / given path
//   CHECKPOINT <session> [path]       SAVE + WAL rotation, by its
//                                     durability name
//   STORAGE <session>                 WAL / bound-path report
//   CLOSE <session>                   drop from the registry (and WAL)
//   SET <session> <cell> <value>      number, or text (quotes optional)
//   FORMULA <session> <cell> <src>    formula without the leading '='
//   GET <session> <cell>              -> VALUE <cell> <display form>
//   GETRANGE <session> <range>        -> OK range <range> version=<v>
//                                        cells=<n>, then one VALUE line
//                                        per non-blank cell, then END —
//                                        all cells from ONE published
//                                        version (never torn mid-recalc)
//   CLEAR <session> <range>
//   BATCH <session> <n>               header; then n lines of
//     SET <cell> <value> | FORMULA <cell> <src> | CLEAR <range>
//   RECALC <session> [cutoff on|off]  query / toggle value-change cutoff
//   EXPLAIN <session> <cell-or-range> -> OK explain ..., then the dry-run
//                                        recalc plan (PLAN / WAVE / EST
//                                        lines), then END — commits
//                                        nothing
//   STATS [session]                   service / session report
//   LIST                              resident session names
//   METRICS                           -> OK metrics, then the Prometheus
//                                        text exposition, then END
//   TRACE [n]                         -> OK trace ..., then the newest n
//                                        (default all) span lines, END
//
// Every command is minted a process-unique correlation id (rid) for its
// duration; trace spans and structured log events it produces carry it,
// and services started with rid-on-error annotate ERR responses with a
// trailing " rid=<n>" so a client-visible failure joins those records.
//
// The processor is stateless and thread-safe: a complete command (header
// plus any BATCH body lines) goes in as one string, the response comes
// back as one string. Framing a byte stream into such commands is
// CommandFramer's job, and every transport (taco_serve's stdin loop, each
// socket connection) uses that one framer.

#ifndef TACO_SERVICE_PROTOCOL_H_
#define TACO_SERVICE_PROTOCOL_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "service/workbook_service.h"

namespace taco {

/// Transport-agnostic response emission. Execute() returns each response
/// as ONE string (multi-line for service STATS); a ResponseWriter's
/// contract is that one Emit call delivers that whole response — plus
/// the terminating newline — as one atomic unit on the wire, so two
/// threads sharing a transport can never interleave mid-response.
/// Returns false when the transport is gone (peer hung up); the caller
/// should stop emitting.
class ResponseWriter {
 public:
  virtual ~ResponseWriter() = default;
  virtual bool Emit(std::string_view response) = 0;
};

/// ResponseWriter over a stdio stream (taco_serve's stdin mode, script
/// replay). One fwrite + flush per response: a response is visible to
/// the reader as soon as Emit returns, never partially.
class StdioResponseWriter : public ResponseWriter {
 public:
  explicit StdioResponseWriter(std::FILE* out) : out_(out) {}
  bool Emit(std::string_view response) override;

 private:
  std::FILE* out_;
};

class CommandProcessor {
 public:
  /// Upper bound on edits per BATCH. A header asking for more is a
  /// protocol error (and frames zero body lines), so a hostile count
  /// can neither make the transport swallow the rest of the stream nor
  /// reserve unbounded memory.
  static constexpr int kMaxBatchEdits = 65536;

  /// Upper bound on the area of a GETRANGE rectangle. The response is
  /// proportional to the NON-BLANK cells, but enumeration visits every
  /// cell of the rectangle, so a hostile A1:ZZZ9999999 must be refused
  /// rather than walked.
  static constexpr uint64_t kMaxGetRangeCells = 65536;

  /// `service` must outlive the processor.
  explicit CommandProcessor(WorkbookService* service) : service_(service) {}

  /// Executes one complete command (multi-line for BATCH). Never fails at
  /// the C++ level: protocol and engine errors come back as "ERR ..."
  /// response text, keeping the wire protocol uniform.
  std::string Execute(std::string_view command_text);

  /// Number of body lines the transport must still read after this
  /// header line to complete the command (only BATCH needs any); 0 for
  /// every other command, including malformed ones (their error surfaces
  /// when the header is executed). Returns -1 for a BATCH header whose
  /// count is unusable (negative, non-numeric, or over kMaxBatchEdits):
  /// the frame boundary is unknowable, so the only safe transport
  /// response is to report the error (Execute still produces it) and
  /// close the stream — re-interpreting the body lines as commands
  /// would silently address other sessions.
  static int ExtraBodyLines(std::string_view header_line);

  /// Response framing for remote clients: almost every response is one
  /// line, but the service-wide STATS report and GETRANGE span several.
  /// A response whose FIRST line satisfies this predicate continues
  /// until a lone terminator line (kResponseTerminator). SocketClient
  /// uses it to know when a reply is complete.
  static bool ResponseContinues(std::string_view first_line);
  static constexpr std::string_view kResponseTerminator = "END";

 private:
  /// Admin-verb metering around ExecuteInner; Execute wraps THIS with
  /// the rid scope so the histogram sample and the correlation id cover
  /// the same window.
  std::string ExecuteMetered(std::string_view command_text);

  /// The dispatch body behind Execute (which wraps it with admin-verb
  /// metering — session-addressed data ops meter inside the session).
  std::string ExecuteInner(std::string_view command_text);

  WorkbookService* service_;
};

/// The line framing every transport shares. The transport feeds it the
/// raw bytes of one in-order stream; it splits them into lines (LF or
/// CRLF, torn anywhere), collects each BATCH header's body lines with
/// ExtraBodyLines, executes every complete command and emits its
/// response, in arrival order. Framing hazards:
///   - a line longer than `max_line_bytes` is never buffered: it gets one
///     "ERR InvalidArgument: line exceeds ..." response and the stream
///     survives. Inside a BATCH body the dropped line still consumes its
///     body slot (the batch response then names it unparseable), so the
///     frame never slips. An oversized line whose first word is BATCH
///     is an unframeable header (below): its count was in the dropped
///     bytes.
///   - an unframeable BATCH header (bad, missing or oversized count) gets
///     its ERR response and then the stream closes: the body length is
///     unknowable, and reading body lines as commands would silently
///     address other sessions.
///   - QUIT or EXIT closes the stream without a response.
///   - at end of input an unterminated final line still counts, and a
///     BATCH cut short executes with the body lines that arrived.
/// Not thread-safe: one framer per stream.
class CommandFramer {
 public:
  static constexpr size_t kDefaultMaxLineBytes = 64 * 1024;

  /// Every pointer must outlive the framer. `counters` receives the
  /// executed-command and dropped-line counts.
  CommandFramer(CommandProcessor* processor, ResponseWriter* writer,
                TransportCounters* counters,
                size_t max_line_bytes = kDefaultMaxLineBytes);

  /// Consumes the next bytes of the stream. Ignored once closed().
  void Feed(std::string_view bytes);

  /// End of input: flushes an unterminated final line and a BATCH cut
  /// short, then closes.
  void Finish();

  /// True after QUIT/EXIT, an unframeable BATCH header, a response the
  /// writer could not deliver, or Finish().
  bool closed() const { return closed_; }

 private:
  void FeedLine(std::string_view line);
  void Oversized(std::string_view prefix);
  void Dispatch(std::string_view command);

  CommandProcessor* processor_;
  ResponseWriter* writer_;
  TransportCounters* counters_;
  size_t max_line_bytes_;
  std::string inbuf_;       ///< Bytes not yet split into lines.
  std::string pending_;     ///< BATCH header plus the body lines so far.
  int body_needed_ = 0;     ///< Body lines still owed to `pending_`.
  bool discarding_ = false; ///< Skipping the tail of an oversized line.
  bool closed_ = false;
};

}  // namespace taco

#endif  // TACO_SERVICE_PROTOCOL_H_
