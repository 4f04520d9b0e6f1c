#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench/workload.h"
#include "storage/table_data.h"

namespace perfbench {

using fgac::Row;
using fgac::Value;
using fgac::core::Database;
using fgac::core::EnforcementMode;

size_t HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

Env::~Env() {
  // Sessions hold the database by reference: close them first.
  principals.clear();
  cm.reset();
  db.reset();
}

ClientStream::ClientStream(uint64_t seed, int client_index)
    : client(client_index),
      rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(client_index) +
          1) {}

int ClientStream::NextKind(const std::vector<int>& proportions) {
  if (deck.empty()) {
    for (size_t k = 0; k < proportions.size(); ++k) {
      deck.insert(deck.end(), static_cast<size_t>(proportions[k]),
                  static_cast<int>(k));
    }
  }
  if (pos == 0) std::shuffle(deck.begin(), deck.end(), rng);
  int kind = deck[pos];
  pos = (pos + 1) % deck.size();
  return kind;
}

double ClientStream::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

int ClientStream::Below(int n) {
  return std::uniform_int_distribution<int>(0, n - 1)(rng);
}

namespace {

std::string Sid(int s) { return "s" + std::to_string(s); }
std::string Cid(int c) { return "c" + std::to_string(c); }
std::string Quote(const std::string& s) { return "'" + s + "'"; }

/// A fresh numeric constant: six decimals, so no two statements of a run
/// share one in practice.
std::string Fresh(ClientStream& s, double lo, double hi) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", s.Uniform(lo, hi));
  return buf;
}

void Must(Database* db, const std::string& sql) {
  fgac::Status st = db->ExecuteScript(sql);
  if (!st.ok()) {
    throw std::runtime_error("setup statement failed: " + st.ToString() +
                             " in: " + sql.substr(0, 200));
  }
}

std::unique_ptr<Database> MakeDatabase(size_t parallelism) {
  fgac::core::DatabaseOptions opts;
  // The execution expansion budget Database() uses by default.
  opts.exec_expand.max_passes = 8;
  opts.exec_expand.max_exprs = 20000;
  opts.parallelism = parallelism;
  opts.shared_pool_threads = HardwareThreads();
  return std::make_unique<Database>(std::move(opts));
}

/// Loads the university schema and data with the bench/ generator, seeded
/// from `rng`, and reads back each student's registrations, from which the
/// streams pick courses the policy must accept or refuse.
University LoadUniversity(Database* db, int students, int courses,
                          std::mt19937_64& rng) {
  fgac::bench::UniversityScale scale;
  scale.students = students;
  scale.courses = courses;
  fgac::bench::LoadScaledUniversity(db, scale, static_cast<uint32_t>(rng()));
  University u;
  u.students = students;
  u.courses = courses;
  u.regs.resize(static_cast<size_t>(students));
  for (const Row& r : db->state().GetTable("registered")->rows()) {
    int s = std::stoi(r[0].string_value().substr(1));
    u.regs[static_cast<size_t>(s)].push_back(
        std::stoi(r[1].string_value().substr(1)));
  }
  return u;
}

void RecordUniversitySizes(Env* env) {
  for (const char* t : {"students", "courses", "registered", "grades"}) {
    env->sizes[std::string("rows.") + t] = static_cast<int64_t>(
        env->db->state().GetTable(t)->num_rows());
  }
}

/// Picks `n` distinct students as principals, in seed order.
std::vector<int> PickStudents(int students, int n, std::mt19937_64& rng) {
  std::vector<int> all(static_cast<size_t>(students));
  for (int i = 0; i < students; ++i) all[static_cast<size_t>(i)] = i;
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(static_cast<size_t>(std::min(n, students)));
  return all;
}

void OpenPrincipal(Env* env, const std::string& user, EnforcementMode mode,
                   int student) {
  Principal p;
  p.user = user;
  p.mode = mode;
  p.session = env->cm->Open(user, mode);
  env->principals.push_back(std::move(p));
  env->principal_student.push_back(student);
}

/// Deals principals round-robin over `clients` clients.
void DealPrincipals(Env* env, int clients) {
  env->client_principals.assign(static_cast<size_t>(clients), {});
  for (size_t i = 0; i < env->principals.size(); ++i) {
    env->client_principals[i % static_cast<size_t>(clients)].push_back(
        static_cast<int>(i));
  }
}

/// Skewed pick (Zipf, exponent 1) over the client's principals; which
/// principals are hot depends on the stream's seed.
int PickSkewed(const Env& env, ClientStream& s) {
  const std::vector<int>& mine =
      env.client_principals[static_cast<size_t>(s.client)];
  if (s.zipf_cdf.empty()) {
    double total = 0;
    for (size_t r = 0; r < mine.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      s.zipf_cdf.push_back(total);
    }
    for (double& w : s.zipf_cdf) w /= total;
    s.zipf_order = mine;
    std::shuffle(s.zipf_order.begin(), s.zipf_order.end(), s.rng);
  }
  double u = s.Uniform(0.0, 1.0);
  size_t rank = static_cast<size_t>(
      std::lower_bound(s.zipf_cdf.begin(), s.zipf_cdf.end(), u) -
      s.zipf_cdf.begin());
  return s.zipf_order[std::min(rank, s.zipf_order.size() - 1)];
}

int PickUniform(const Env& env, ClientStream& s) {
  const std::vector<int>& mine =
      env.client_principals[static_cast<size_t>(s.client)];
  return mine[static_cast<size_t>(s.Below(static_cast<int>(mine.size())))];
}

bool Registered(const University& u, int student, int course) {
  const std::vector<int>& r = u.regs[static_cast<size_t>(student)];
  return std::find(r.begin(), r.end(), course) != r.end();
}

int RegisteredCourse(const University& u, int student, ClientStream& s) {
  const std::vector<int>& r = u.regs[static_cast<size_t>(student)];
  return r[static_cast<size_t>(s.Below(static_cast<int>(r.size())))];
}

int UnregisteredCourse(const University& u, int student, ClientStream& s) {
  for (;;) {
    int c = s.Below(u.courses);
    if (!Registered(u, student, c)) return c;
  }
}

Stmt Read(int tmpl, int principal, std::string sql) {
  Stmt st;
  st.tmpl = tmpl;
  st.principal = principal;
  st.oracle_sql = sql;
  st.sql = std::move(sql);
  return st;
}

Stmt Refused(int tmpl, int principal, std::string sql) {
  Stmt st;
  st.tmpl = tmpl;
  st.principal = principal;
  st.sql = std::move(sql);
  return st;
}

Stmt InsertRegistration(int tmpl, int principal, int student, int course) {
  Stmt st;
  st.tmpl = tmpl;
  st.principal = principal;
  st.sql = "insert into registered values (" + Quote(Sid(student)) + ", " +
           Quote(Cid(course)) + ")";
  st.table = "registered";
  st.write_rows = {{Value::String(Sid(student)), Value::String(Cid(course))}};
  st.expect_affected = 1;
  return st;
}

/// Deletes the registrations of `student` for `courses` in one statement.
Stmt DropRegistrations(int tmpl, int principal, int student,
                       const std::vector<int>& courses) {
  Stmt st;
  st.tmpl = tmpl;
  st.principal = principal;
  st.sql = "delete from registered where student-id = " + Quote(Sid(student)) +
           " and (";
  for (size_t i = 0; i < courses.size(); ++i) {
    st.sql += (i > 0 ? " or course-id = " : "course-id = ") +
              Quote(Cid(courses[i]));
    st.write_rows.push_back(
        {Value::String(Sid(student)), Value::String(Cid(courses[i]))});
  }
  st.sql += ")";
  st.table = "registered";
  st.is_delete = true;
  st.expect_affected = static_cast<int64_t>(courses.size());
  return st;
}

/// Four INSERTs registering `student` for courses they are not in, then
/// one DELETE dropping all four: the data ends as it started.
void RegisterAndDrop(const University& u, int principal, int student,
                     ClientStream& s, int insert_tmpl, int drop_tmpl,
                     Step* step) {
  std::vector<int> courses;
  while (courses.size() < 4) {
    int c = UnregisteredCourse(u, student, s);
    if (std::find(courses.begin(), courses.end(), c) == courses.end()) {
      courses.push_back(c);
    }
  }
  step->exclusive = true;
  for (int c : courses) {
    step->stmts.push_back(InsertRegistration(insert_tmpl, principal, student, c));
  }
  step->stmts.push_back(DropRegistrations(drop_tmpl, principal, student, courses));
}

/// The paper's views (bench/ CreateStandardViews) plus the AUTHORIZE rules
/// that let a student register and drop only themselves.
void CreateStudentPolicy(Database* db) {
  fgac::bench::CreateStandardViews(db);
  Must(db,
       "authorize insert on registered where registered.student-id = $user-id;"
       "authorize delete on registered where registered.student-id = $user-id;");
}

std::string GrantAll(const std::vector<std::string>& views,
                     const std::string& user) {
  std::string sql;
  for (const std::string& v : views) {
    sql += "grant select on " + v + " to " + user + ";";
  }
  return sql;
}

const std::vector<std::string> kStudentViews = {
    "mygrades", "costudentgrades", "myregistrations", "avggrades",
    "regstudents"};

// ---------------------------------------------------------------------------
// portal: student self-service reads from concurrent sessions.

class PortalWorkload : public Workload {
 public:
  static constexpr int kStudents = 20000;
  static constexpr int kCourses = 200;
  static constexpr int kPrincipals = 1024;

  int clients() const override {
    // Two sessions, so statements contend for the engine's locks, caches
    // and memory. With three on 4 cores the run-to-run spread exceeded the
    // benchmark's bound. One core always stays free for the engine's
    // background threads (audit flusher, watchdog).
    size_t n = HardwareThreads();
    return static_cast<int>(std::clamp<size_t>(n - 1, 1, 2));
  }
  size_t parallelism() const override { return 1; }
  const std::vector<Template>& templates() const override {
    static const std::vector<Template> t = {
        {"own_grades", Op::kRead, Verdict::kAccept},
        {"own_grade_execute", Op::kRead, Verdict::kAccept},
        {"coursemate_grades", Op::kRead, Verdict::kAccept},
        {"course_averages", Op::kRead, Verdict::kAccept},
        {"overbroad_course", Op::kRead, Verdict::kRefuse},
        {"register", Op::kWrite, Verdict::kAccept},
        {"drop", Op::kWrite, Verdict::kAccept},
    };
    return t;
  }

  std::unique_ptr<Env> Setup(uint64_t seed) const override {
    std::mt19937_64 rng(seed);
    auto env = std::make_unique<Env>();
    env->db = MakeDatabase(parallelism());
    env->uni = LoadUniversity(env->db.get(), kStudents, kCourses, rng);
    CreateStudentPolicy(env->db.get());
    std::vector<int> picked = PickStudents(kStudents, kPrincipals, rng);
    std::string grants;
    for (int s : picked) grants += GrantAll(kStudentViews, Sid(s));
    Must(env->db.get(), grants);
    env->cm = std::make_unique<fgac::server::ConnectionManager>(*env->db);
    for (int s : picked) {
      OpenPrincipal(env.get(), Sid(s), EnforcementMode::kNonTruman, s);
      auto r = env->principals.back().session->Execute(
          "prepare owngrade as select course-id, grade from grades "
          "where student-id = $user-id and course-id = $1");
      if (!r.ok()) throw std::runtime_error(r.status().ToString());
    }
    DealPrincipals(env.get(), clients());
    env->written_tables = {"registered"};
    RecordUniversitySizes(env.get());
    env->sizes["principals"] = static_cast<int64_t>(picked.size());
    env->sizes["views_per_principal"] =
        static_cast<int64_t>(kStudentViews.size());
    return env;
  }

  Step Next(const Env& env, ClientStream& s) const override {
    // Per 48 steps: 8 own grades, 6 EXECUTEs, 12 course-mate reads, 15
    // course averages, 6 over-broad reads and 1 register/drop group. The
    // shares put every class median inside one template's cluster, not on
    // the edge between two.
    static const std::vector<int> kMix = {8, 6, 12, 15, 6, 1};
    int kind = s.NextKind(kMix);
    int p = PickSkewed(env, s);
    int sid = env.principal_student[static_cast<size_t>(p)];
    const std::string me = Quote(Sid(sid));
    Step step;
    switch (kind) {
      case 0:
        step.stmts.push_back(Read(
            0, p, "select course-id, grade from grades where student-id = " + me));
        break;
      case 1: {
        std::string c = Quote(Cid(RegisteredCourse(env.uni, sid, s)));
        Stmt st = Read(1, p,
                       "select course-id, grade from grades where student-id = " +
                           me + " and course-id = " + c);
        st.equiv_select = st.sql;
        st.sql = "execute owngrade (" + c + ")";
        step.stmts.push_back(std::move(st));
        break;
      }
      case 2:
        step.stmts.push_back(
            Read(2, p,
                 "select student-id, grade from grades where course-id = " +
                     Quote(Cid(RegisteredCourse(env.uni, sid, s)))));
        break;
      case 3:
        step.stmts.push_back(Read(
            3, p, "select course-id, avg(grade) from grades group by course-id"));
        break;
      case 4:
        step.stmts.push_back(
            Refused(4, p,
                    "select student-id, grade from grades where course-id = " +
                        Quote(Cid(UnregisteredCourse(env.uni, sid, s)))));
        break;
      default:
        RegisterAndDrop(env.uni, p, sid, s, 5, 6, &step);
        break;
    }
    return step;
  }
};

// ---------------------------------------------------------------------------
// policy: ad hoc queries under many views, fresh constants every time.

class PolicyWorkload : public Workload {
 public:
  static constexpr int kStudents = 500;
  static constexpr int kCourses = 20;
  static constexpr int kSyntheticViews = 64;
  static constexpr int kChain = 6;
  static constexpr int kChainRows = 200;
  static constexpr int kPrincipals = 8;

  int clients() const override { return 1; }
  size_t parallelism() const override { return 1; }
  const std::vector<Template>& templates() const override {
    static const std::vector<Template> t = {
        {"own_grades_above", Op::kRead, Verdict::kAccept},
        {"own_registrations_grades", Op::kRead, Verdict::kAccept},
        {"coursemate_grades_above", Op::kRead, Verdict::kAccept},
        {"chain6", Op::kRead, Verdict::kAccept},
        {"overbroad_grades", Op::kRead, Verdict::kRefuse},
        {"register", Op::kWrite, Verdict::kAccept},
        {"drop", Op::kWrite, Verdict::kAccept},
    };
    return t;
  }

  std::unique_ptr<Env> Setup(uint64_t seed) const override {
    std::mt19937_64 rng(seed);
    auto env = std::make_unique<Env>();
    env->db = MakeDatabase(parallelism());
    Database* db = env->db.get();
    env->uni = LoadUniversity(db, kStudents, kCourses, rng);
    CreateStudentPolicy(db);

    // Chain tables bt0..bt5 and the pairwise views that make the 6-way
    // chain join valid.
    std::vector<std::string> names = kStudentViews;
    for (const std::string& v : fgac::bench::CreateChainPairViews(db, kChain)) {
      names.push_back(v);
    }
    for (int i = 0; i < kChain; ++i) {
      std::vector<Row> rows;
      for (int k = 0; k < kChainRows; ++k) {
        rows.push_back({Value::Int(k), Value::Int(static_cast<int64_t>(rng() % 1000))});
      }
      db->state().GetMutableTable("bt" + std::to_string(i))->InsertRows(
          std::move(rows));
    }

    // Synthetic views in four shapes, granted to the first principal as
    // they are created and to the others below.
    std::vector<int> picked = PickStudents(kStudents, kPrincipals, rng);
    fgac::bench::CreateSyntheticViews(db, kSyntheticViews, Sid(picked[0]));
    std::vector<std::string> synthetic;
    for (int i = 0; i < kSyntheticViews; ++i) {
      synthetic.push_back("synthview_" + std::to_string(i));
    }
    std::string grants;
    for (size_t i = 0; i < picked.size(); ++i) {
      grants += GrantAll(names, Sid(picked[i]));
      if (i > 0) grants += GrantAll(synthetic, Sid(picked[i]));
    }
    Must(db, grants);
    names.insert(names.end(), synthetic.begin(), synthetic.end());
    env->cm = std::make_unique<fgac::server::ConnectionManager>(*db);
    for (int s : picked) {
      OpenPrincipal(env.get(), Sid(s), EnforcementMode::kNonTruman, s);
    }
    DealPrincipals(env.get(), clients());
    env->written_tables = {"registered"};
    RecordUniversitySizes(env.get());
    env->sizes["principals"] = static_cast<int64_t>(picked.size());
    env->sizes["views_per_principal"] = static_cast<int64_t>(names.size());
    env->sizes["rows.chain_table"] = kChainRows;
    return env;
  }

  Step Next(const Env& env, ClientStream& s) const override {
    // Per 23 steps: 5 own grades, 8 own registrations with grades, 3
    // course-mate reads, 2 chain joins, 4 over-broad reads and 1
    // register/drop group. The statement and read medians fall near the
    // middle of the own-registrations cluster, whose lower tail is wide.
    static const std::vector<int> kMix = {5, 8, 3, 2, 4, 1};
    int kind = s.NextKind(kMix);
    int p = PickUniform(env, s);
    int sid = env.principal_student[static_cast<size_t>(p)];
    const std::string me = Quote(Sid(sid));
    Step step;
    switch (kind) {
      case 0:
        step.stmts.push_back(
            Read(0, p,
                 "select * from grades where student-id = " + me +
                     " and grade > " + Fresh(s, 1.0, 3.5)));
        break;
      case 1:
        step.stmts.push_back(Read(
            1, p,
            "select registered.course-id, grades.grade from registered, grades "
            "where registered.student-id = " +
                me + " and grades.student-id = " + me +
                " and grades.course-id = registered.course-id and "
                "grades.grade > " +
                Fresh(s, 1.0, 3.5)));
        break;
      case 2:
        step.stmts.push_back(
            Read(2, p,
                 "select * from grades where course-id = " +
                     Quote(Cid(RegisteredCourse(env.uni, sid, s))) +
                     " and grade > " + Fresh(s, 1.0, 3.5)));
        break;
      case 3: {
        std::string sql = fgac::bench::ChainJoinQuery(env.db.get(), kChain) +
                          " and bt0.v > " + std::to_string(s.Below(1000));
        step.stmts.push_back(Read(3, p, sql));
        break;
      }
      case 4:
        step.stmts.push_back(Refused(
            4, p, "select * from grades where grade > " + Fresh(s, 1.0, 3.5)));
        break;
      default:
        RegisterAndDrop(env.uni, p, sid, s, 5, 6, &step);
        break;
    }
    return step;
  }
};

// ---------------------------------------------------------------------------
// analytics: registrar, auditor and advisor reporting on large tables.

class AnalyticsWorkload : public Workload {
 public:
  static constexpr int kStudents = 50000;
  static constexpr int kCourses = 500;
  static constexpr int kAdvisors = 50;
  static constexpr int kAdvisorPrincipals = 16;

  int clients() const override { return 1; }
  /// Half the cores: a pipeline waits for its slowest task, so with every
  /// core busy any other process on the machine stalls whole statements,
  /// and the run-to-run spread exceeded the benchmark's bound.
  size_t parallelism() const override {
    return std::max<size_t>(1, HardwareThreads() / 2);
  }
  const std::vector<Template>& templates() const override {
    static const std::vector<Template> t = {
        {"course_stats", Op::kRead, Verdict::kAccept},
        {"type_averages_join", Op::kRead, Verdict::kAccept},
        {"registered_students_groupby", Op::kRead, Verdict::kAccept},
        {"auditor_course_averages", Op::kRead, Verdict::kAccept},
        {"advisor_truman_averages", Op::kRead, Verdict::kAccept},
        {"auditor_per_student", Op::kRead, Verdict::kRefuse},
        {"add_course", Op::kWrite, Verdict::kAccept},
        {"withdraw_courses", Op::kWrite, Verdict::kAccept},
    };
    return t;
  }

  std::unique_ptr<Env> Setup(uint64_t seed) const override {
    std::mt19937_64 rng(seed);
    auto env = std::make_unique<Env>();
    env->db = MakeDatabase(parallelism());
    Database* db = env->db.get();
    env->uni = LoadUniversity(db, kStudents, kCourses, rng);
    CreateStudentPolicy(db);
    Must(db, R"sql(
      create table advises (
        advisor-id varchar not null,
        student-id varchar not null references students,
        primary key (advisor-id, student-id));
      create authorization view allgrades as select * from grades;
      create authorization view allstudents as select * from students;
      create authorization view allregistered as select * from registered;
      create authorization view adviseegrades as
        select grades.* from grades, advises
        where grades.student-id = advises.student-id
          and advises.advisor-id = $user-id;
      grant select on allgrades to registrar;
      grant select on allstudents to registrar;
      grant select on allregistered to registrar;
      grant select on avggrades to registrar;
      grant select on avggrades to auditor;
      authorize insert on courses to registrar;
      authorize delete on courses to registrar;
    )sql");
    std::vector<Row> advises;
    for (int s = 0; s < kStudents; ++s) {
      advises.push_back({Value::String("a" + std::to_string(rng() % kAdvisors)),
                         Value::String(Sid(s))});
    }
    db->state().GetMutableTable("advises")->InsertRows(std::move(advises));
    fgac::Status st = db->catalog().SetTrumanView("grades", "adviseegrades");
    if (!st.ok()) throw std::runtime_error(st.ToString());
    std::string grants;
    for (int a = 0; a < kAdvisorPrincipals; ++a) {
      grants += "grant select on adviseegrades to a" + std::to_string(a) + ";";
    }
    Must(db, grants);
    env->cm = std::make_unique<fgac::server::ConnectionManager>(*db);
    OpenPrincipal(env.get(), "registrar", EnforcementMode::kNonTruman, -1);
    OpenPrincipal(env.get(), "auditor", EnforcementMode::kNonTruman, -1);
    for (int a = 0; a < kAdvisorPrincipals; ++a) {
      OpenPrincipal(env.get(), "a" + std::to_string(a),
                    EnforcementMode::kTruman, -1);
    }
    env->client_principals = {{}};
    for (size_t i = 0; i < env->principals.size(); ++i) {
      env->client_principals[0].push_back(static_cast<int>(i));
    }
    env->written_tables = {"courses"};
    RecordUniversitySizes(env.get());
    env->sizes["rows.advises"] = kStudents;
    env->sizes["principals"] = static_cast<int64_t>(env->principals.size());
    return env;
  }

  Step Next(const Env& env, ClientStream& s) const override {
    (void)env;
    // Per 38 steps: 8 course statistics, 6 type averages, 6 registration
    // counts, 4 auditor averages, 8 advisor (Truman) averages, 4 refused
    // per-student reports and 2 add/withdraw groups.
    static const std::vector<int> kMix = {8, 6, 6, 4, 8, 4, 2};
    int kind = s.NextKind(kMix);
    constexpr int kRegistrar = 0, kAuditor = 1;
    Step step;
    switch (kind) {
      case 0: {
        static const char* kThresholds[] = {"1.0", "1.5", "2.0", "2.5", "3.0"};
        step.stmts.push_back(Read(
            0, kRegistrar,
            std::string("select course-id, avg(grade), count(*) from grades "
                        "where grade >= ") +
                kThresholds[s.Below(5)] + " group by course-id"));
        break;
      }
      case 1:
        step.stmts.push_back(Read(
            1, kRegistrar,
            "select students.type, avg(grades.grade) from grades, students "
            "where grades.student-id = students.student-id "
            "group by students.type"));
        break;
      case 2:
        step.stmts.push_back(Read(
            2, kRegistrar,
            "select registered.course-id, count(*) from registered, students "
            "where registered.student-id = students.student-id and "
            "students.type = 'parttime' group by registered.course-id"));
        break;
      case 3:
        step.stmts.push_back(Read(
            3, kAuditor,
            "select course-id, avg(grade) from grades group by course-id"));
        break;
      case 4: {
        int a = s.Below(kAdvisorPrincipals);
        Stmt st = Read(
            4, 2 + a, "select course-id, avg(grade) from grades group by course-id");
        // The Truman answer is the admin answer over the advisor's view.
        st.oracle_sql =
            "select grades.course-id, avg(grades.grade) from grades, advises "
            "where grades.student-id = advises.student-id and "
            "advises.advisor-id = 'a" +
            std::to_string(a) + "' group by grades.course-id";
        step.stmts.push_back(std::move(st));
        break;
      }
      case 5:
        step.stmts.push_back(Refused(
            5, kAuditor,
            "select student-id, avg(grade) from grades where grade >= " +
                Fresh(s, 1.0, 3.0) + " group by student-id"));
        break;
      default: {
        std::string base = "x" + std::to_string(s.client) + "n" +
                           std::to_string(s.seq++);
        step.exclusive = true;
        for (const char* suffix : {"a", "b"}) {
          Stmt ins;
          ins.tmpl = 6;
          ins.principal = kRegistrar;
          ins.sql = "insert into courses values ('" + base + suffix +
                    "', 'seminar " + base + suffix + "')";
          ins.table = "courses";
          ins.write_rows = {{Value::String(base + suffix),
                             Value::String("seminar " + base + suffix)}};
          ins.expect_affected = 1;
          step.stmts.push_back(std::move(ins));
        }
        Stmt del;
        del.tmpl = 7;
        del.principal = kRegistrar;
        del.sql = "delete from courses where course-id = '" + base +
                  "a' or course-id = '" + base + "b'";
        del.table = "courses";
        del.is_delete = true;
        del.write_rows = {step.stmts[0].write_rows[0], step.stmts[1].write_rows[0]};
        del.expect_affected = 2;
        step.stmts.push_back(std::move(del));
        break;
      }
    }
    return step;
  }
};

// ---------------------------------------------------------------------------
// enroll: registration-period writes beside the reads they affect.

class EnrollWorkload : public Workload {
 public:
  static constexpr int kStudents = 20000;
  static constexpr int kCourses = 200;
  static constexpr int kPrincipals = 1024;

  int clients() const override { return 1; }
  size_t parallelism() const override { return 1; }
  const std::vector<Template>& templates() const override {
    static const std::vector<Template> t = {
        {"register", Op::kWrite, Verdict::kAccept},
        {"own_registrations", Op::kRead, Verdict::kAccept},
        {"coursemate_grades", Op::kRead, Verdict::kAccept},
        {"drop", Op::kWrite, Verdict::kAccept},
        {"register_other", Op::kWrite, Verdict::kRefuse},
    };
    return t;
  }

  std::unique_ptr<Env> Setup(uint64_t seed) const override {
    std::mt19937_64 rng(seed);
    auto env = std::make_unique<Env>();
    env->db = MakeDatabase(parallelism());
    env->uni = LoadUniversity(env->db.get(), kStudents, kCourses, rng);
    CreateStudentPolicy(env->db.get());
    std::vector<int> picked = PickStudents(kStudents, kPrincipals, rng);
    std::string grants;
    for (int s : picked) grants += GrantAll(kStudentViews, Sid(s));
    Must(env->db.get(), grants);
    env->cm = std::make_unique<fgac::server::ConnectionManager>(*env->db);
    for (int s : picked) {
      OpenPrincipal(env.get(), Sid(s), EnforcementMode::kNonTruman, s);
    }
    DealPrincipals(env.get(), clients());
    env->written_tables = {"registered"};
    RecordUniversitySizes(env.get());
    env->sizes["principals"] = static_cast<int64_t>(picked.size());
    env->sizes["views_per_principal"] =
        static_cast<int64_t>(kStudentViews.size());
    return env;
  }

  Step Next(const Env& env, ClientStream& s) const override {
    // One registration cycle per step: register for four courses, read own
    // registrations and two of the new courses' grades, drop all four, and
    // try to register another student. The refusal and the INSERTs are the
    // cheapest five of the nine statements, so the statement median falls
    // among the INSERTs.
    int p = PickUniform(env, s);
    int sid = env.principal_student[static_cast<size_t>(p)];
    Step step;
    RegisterAndDrop(env.uni, p, sid, s, 0, 3, &step);
    Stmt drop = std::move(step.stmts.back());
    step.stmts.pop_back();
    Stmt own = Read(1, p,
                    "select * from registered where student-id = " +
                        Quote(Sid(sid)));
    own.extra_rows = drop.write_rows;
    step.stmts.push_back(std::move(own));
    for (size_t i = 0; i < 2; ++i) {
      step.stmts.push_back(
          Read(2, p,
               "select student-id, grade from grades where course-id = " +
                   drop.write_rows[i][1].ToString()));
    }
    step.stmts.push_back(std::move(drop));
    int other = s.Below(env.uni.students);
    if (other == sid) other = (other + 1) % env.uni.students;
    Stmt refused = InsertRegistration(4, p, other,
                                      UnregisteredCourse(env.uni, other, s));
    step.stmts.push_back(std::move(refused));
    return step;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "portal") return std::make_unique<PortalWorkload>();
  if (name == "policy") return std::make_unique<PolicyWorkload>();
  if (name == "analytics") return std::make_unique<AnalyticsWorkload>();
  if (name == "enroll") return std::make_unique<EnrollWorkload>();
  return nullptr;
}

}  // namespace perfbench
