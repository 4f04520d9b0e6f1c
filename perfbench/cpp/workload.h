#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/value.h"
#include "core/database.h"
#include "core/session_context.h"
#include "server/connection_manager.h"

namespace perfbench {

enum class Op { kRead, kWrite };
enum class Verdict { kAccept, kRefuse };

/// One statement shape of a workload, with the verdict the policy requires.
struct Template {
  std::string name;
  Op op = Op::kRead;
  Verdict verdict = Verdict::kAccept;
};

/// One generated statement plus what the oracle and the traced replay need
/// to know about it.
struct Stmt {
  int tmpl = 0;
  /// Index into Env::principals: the session that runs the statement.
  int principal = 0;
  std::string sql;
  /// Accepted reads: admin SQL whose answer on the loaded data, plus
  /// `extra_rows`, must equal the statement's answer.
  std::string oracle_sql;
  std::vector<fgac::Row> extra_rows;
  /// EXECUTE statements: the ad hoc SELECT the prepared plan instantiates.
  std::string equiv_select;
  /// Writes: target table, the tuples inserted or deleted, and the row
  /// count an accepted write must report.
  std::string table;
  std::vector<fgac::Row> write_rows;
  bool is_delete = false;
  int64_t expect_affected = 0;
};

/// A unit a client runs without interruption. Steps that write hold the
/// client-side writer lock, so no read runs beside a write; the statements
/// of a step that writes leave the data as they found it.
struct Step {
  std::vector<Stmt> stmts;
  bool exclusive = false;
};

struct Principal {
  std::string user;
  fgac::core::EnforcementMode mode = fgac::core::EnforcementMode::kNonTruman;
  std::shared_ptr<fgac::server::Session> session;
};

/// The loaded registrations, kept so statement streams can pick courses
/// that the policy must accept or refuse.
struct University {
  int students = 0;
  int courses = 0;
  /// Per student: registered course indices.
  std::vector<std::vector<int>> regs;
};

/// A set-up database with open sessions, ready for the timed loop.
struct Env {
  std::unique_ptr<fgac::core::Database> db;
  std::unique_ptr<fgac::server::ConnectionManager> cm;
  std::vector<Principal> principals;
  /// Student index of each principal (-1 for non-student principals).
  std::vector<int> principal_student;
  /// Principal indices each client draws from.
  std::vector<std::vector<int>> client_principals;
  University uni;
  /// Tables the workload writes; they must hold their loaded rows again
  /// when the run ends.
  std::vector<std::string> written_tables;
  /// Row counts and policy sizes, reported with every result.
  std::map<std::string, int64_t> sizes;

  ~Env();
};

/// Per-client generator state: the same (seed, client) gives the same
/// stream of steps.
struct ClientStream {
  ClientStream(uint64_t seed, int client);
  int client = 0;
  std::mt19937_64 rng;
  /// Step kinds in exact proportions, reshuffled on every pass.
  std::vector<int> deck;
  size_t pos = 0;
  uint64_t seq = 0;
  /// Zipf cumulative weights over this client's principals (by rank), and
  /// the rank -> principal permutation.
  std::vector<double> zipf_cdf;
  std::vector<int> zipf_order;

  int NextKind(const std::vector<int>& proportions);
  double Uniform(double lo, double hi);
  int Below(int n);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Closed-loop client threads (never above the engine's pool size).
  virtual int clients() const = 0;
  /// Engine parallelism (DatabaseOptions::parallelism).
  virtual size_t parallelism() const = 0;
  virtual const std::vector<Template>& templates() const = 0;
  /// Loads data, creates views, grants and AUTHORIZE rules, and opens one
  /// session per principal. Deterministic in `seed`.
  virtual std::unique_ptr<Env> Setup(uint64_t seed) const = 0;
  /// Generates the next step for `stream`'s client.
  virtual Step Next(const Env& env, ClientStream& stream) const = 0;
};

/// "portal", "policy", "analytics" or "enroll"; null for anything else.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Engine worker threads: std::thread::hardware_concurrency(), at least 1.
size_t HardwareThreads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
