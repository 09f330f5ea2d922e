// e2e_runner — the program side of the end-to-end benchmark (e2ebench/run.py).
//
// Every mode takes a core::ClusterSpec as --key=value flags (the same flags
// examples/deta_cluster reads) and writes its outputs under --out=DIR:
//
//   --mode=job        one in-proc DetaJob: result.json, params.bin, telemetry/job.json
//   --mode=cluster    one multi-process TCP cluster via core::LaunchCluster (this binary
//                     re-execs itself per role): result.json, params.bin, and one
//                     telemetry JSON per role under the spec's --telemetry-dir
//   --mode=reference  fl::FflJob on the same spec: params.bin (the correctness oracle)
//   --mode=trace      replays one party's and one aggregator's critical path through
//                     each layer's public functions at the spec's sizes and writes the
//                     spans to trace.json (name, start, end, parent, ops); --reps=N
//                     repetitions, --wire=tcp|inproc for the replayed upload hop
//
// Timing, correctness checks and metric derivation all live in run.py; this program
// only runs the system and records what it saw.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/auth_protocol.h"
#include "core/cluster.h"
#include "core/key_broker.h"
#include "crypto/ecdsa.h"
#include "fl/aggregation.h"
#include "fl/paillier_fusion.h"
#include "fl/training_job.h"
#include "fl/update.h"
#include "net/message_bus.h"
#include "net/tcp_transport.h"

using namespace deta;

namespace {

// --- output helpers ---

void WriteParams(const std::vector<float>& params, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(params.data()),
            static_cast<std::streamsize>(params.size() * sizeof(float)));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void WriteResult(const fl::JobResult& result, const std::vector<core::RoleOutcome>& roles,
                 const std::string& out_dir) {
  WriteParams(result.final_params, out_dir + "/params.bin");
  size_t dropouts = 0;
  for (const auto& [round, parties] : result.per_round_dropouts) {
    dropouts += parties.size();
  }
  std::string json = "{\"status\": " + JsonString(fl::JobStatusName(result.status));
  json += ", \"error\": " + JsonString(result.error);
  json += ", \"setup_seconds\": " + JsonDouble(result.setup_seconds);
  json += ", \"dropouts\": " + std::to_string(dropouts);
  json += ", \"params\": " + std::to_string(result.final_params.size());
  json += ", \"rounds\": [";
  for (size_t i = 0; i < result.rounds.size(); ++i) {
    const fl::RoundMetrics& m = result.rounds[i];
    json += i == 0 ? "" : ", ";
    json += "{\"round\": " + std::to_string(m.round);
    json += ", \"wall_s\": " + JsonDouble(m.wall_seconds) + ", \"rtts_s\": [";
    for (size_t k = 0; k < m.party_rtts_s.size(); ++k) {
      json += (k == 0 ? "" : ", ") + JsonDouble(m.party_rtts_s[k]);
    }
    json += "]}";
  }
  json += "], \"roles\": [";
  for (size_t i = 0; i < roles.size(); ++i) {
    json += (i == 0 ? "{\"role\": " : ", {\"role\": ") + JsonString(roles[i].role) +
            ", \"exit_code\": " + std::to_string(roles[i].exit_code) + "}";
  }
  json += "]}\n";
  std::ofstream(out_dir + "/result.json") << json;
}

// --- span recorder for the trace mode (single-threaded: only main() records) ---

class Tracer {
 public:
  int Begin(const std::string& name, int64_t ops = 1) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.ops = ops;
    s.start_ns = Now();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = Now();
    stack_.pop_back();
  }
  // Runs |fn| inside a span and returns its result.
  template <typename Fn>
  auto Time(const std::string& name, Fn&& fn, int64_t ops = 1) {
    int id = Begin(name, ops);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End(id);
    } else {
      auto out = fn();
      End(id);
      return out;
    }
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"name\": " << JsonString(s.name) << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"ops\": " << s.ops << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t ops = 1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// An aggregator stand-in for the setup replay: answers challenges and registrations
// with a provisioned token until its endpoint closes.
class AuthResponder {
 public:
  AuthResponder(net::Transport& transport, const std::string& name, crypto::SecureRng rng)
      : endpoint_(transport.CreateEndpoint(name)),
        token_(crypto::GenerateEcKey(rng)),
        rng_(std::move(rng)),
        thread_([this] { Serve(); }) {}
  ~AuthResponder() {
    endpoint_->Close();
    thread_.join();
  }
  const crypto::EcPoint& token_public() const { return token_.public_key; }
  // Responder side of the channel the last registration established.
  std::optional<net::SecureChannel> TakeChannel() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(channel_, std::nullopt);
  }

 private:
  void Serve() {
    while (!endpoint_->closed()) {
      std::optional<net::Message> m = endpoint_->ReceiveFor(50);
      if (!m.has_value()) {
        continue;
      }
      if (m->type == core::kAuthChallenge) {
        core::AnswerChallenge(*endpoint_, *m, token_.private_key);
      } else if (m->type == core::kAuthRegister) {
        auto accepted = core::AcceptRegistration(*endpoint_, *m, token_.private_key, rng_);
        if (accepted.has_value()) {
          std::lock_guard<std::mutex> lock(mu_);
          channel_ = std::move(accepted->second);
        }
      }
    }
  }

  std::unique_ptr<net::Endpoint> endpoint_;
  crypto::EcKeyPair token_;
  crypto::SecureRng rng_;
  std::mutex mu_;
  std::optional<net::SecureChannel> channel_;
  std::thread thread_;
};

// Echoes every message back to its sender until closed (the far side of an RTT probe).
class Echo {
 public:
  Echo(net::Transport& transport, const std::string& name)
      : endpoint_(transport.CreateEndpoint(name)), thread_([this] { Serve(); }) {}
  ~Echo() {
    endpoint_->Close();
    thread_.join();
  }

 private:
  void Serve() {
    while (!endpoint_->closed()) {
      std::optional<net::Message> m = endpoint_->ReceiveFor(50);
      if (m.has_value()) {
        endpoint_->Send(m->from, "bench.pong", std::move(m->payload));
      }
    }
  }
  std::unique_ptr<net::Endpoint> endpoint_;
  std::thread thread_;
};

// One ping-pong of |payload| from |endpoint| to |peer|; false when the reply is lost.
bool RoundTrip(net::Endpoint& endpoint, const std::string& peer, const Bytes& payload) {
  endpoint.Send(peer, "bench.ping", payload);
  return endpoint.ReceiveTypeFor("bench.pong", 10000).has_value();
}

// Work the replay does only to fabricate another role's frames; run.py subtracts it
// from the replayed critical path.
constexpr char kStandIn[] = "bench.standin";

struct TraceContext {
  core::ClusterSpec spec;
  int reps = 3;
  bool wire_tcp = false;  // the workload's transport: TCP between nodes, or in-proc
  Tracer tracer;
};

// EC primitives, called directly: the unit costs inside every handshake.
void TraceEcCalls(TraceContext& ctx, crypto::SecureRng& rng) {
  Tracer& t = ctx.tracer;
  int root = t.Begin("calls.ec");
  crypto::EcKeyPair peer = crypto::GenerateEcKey(rng);
  Bytes message = rng.NextBytes(64);
  for (int i = 0; i < ctx.reps; ++i) {
    crypto::EcKeyPair key =
        t.Time("crypto.ec.keygen", [&] { return crypto::GenerateEcKey(rng); });
    crypto::EcdsaSignature sig = t.Time(
        "crypto.ecdsa.sign", [&] { return crypto::EcdsaSign(key.private_key, message); });
    bool ok = t.Time("crypto.ecdsa.verify",
                     [&] { return crypto::EcdsaVerify(key.public_key, message, sig); });
    DETA_CHECK(ok);
    t.Time("crypto.ecdh.agree",
           [&] { return crypto::EcdhSharedSecret(key.private_key, peer.public_key); });
  }
  t.End(root);
}

// One party's setup after attestation: verify and register with every aggregator,
// then fetch the transform material from the key broker (when the spec uses one).
void TraceSetup(TraceContext& ctx, crypto::SecureRng& rng) {
  Tracer& t = ctx.tracer;
  net::MessageBus bus;
  std::vector<std::unique_ptr<AuthResponder>> aggs;
  for (const std::string& name : ctx.spec.AggregatorNames()) {
    aggs.push_back(
        std::make_unique<AuthResponder>(bus, name, crypto::SecureRng(rng.NextBytes(32))));
  }
  std::unique_ptr<core::KeyBroker> broker;
  crypto::EcKeyPair broker_identity = crypto::GenerateEcKey(rng);
  if (ctx.spec.use_key_broker) {
    core::TransformMaterial material;
    material.total_params = core::ClusterModelFactory(ctx.spec)()->NumParameters();
    material.mapper_seed = Secret<Bytes>(rng.NextBytes(32));
    material.permutation_key =
        Secret<Bytes>(core::GeneratePermutationKey(128, rng.NextBytes(32)));
    material.num_aggregators = ctx.spec.aggregators;
    broker = std::make_unique<core::KeyBroker>(material, broker_identity, 0, bus,
                                               crypto::SecureRng(rng.NextBytes(32)));
    broker->Start();
  }
  for (int rep = 0; rep < ctx.reps; ++rep) {
    auto party = bus.CreateEndpoint("party" + std::to_string(rep));
    int root = t.Begin("replay.setup");
    for (size_t j = 0; j < aggs.size(); ++j) {
      const std::string name = ctx.spec.AggregatorNames()[j];
      bool ok = t.Time("core.auth.verify", [&] {
        return core::VerifyAggregator(*party, name, aggs[j]->token_public(), rng);
      });
      DETA_CHECK_MSG(ok, "replayed verification failed");
      auto channel = t.Time("core.auth.register", [&] {
        return core::RegisterWithAggregator(*party, name, aggs[j]->token_public(), rng);
      });
      DETA_CHECK_MSG(channel.has_value(), "replayed registration failed");
    }
    if (broker) {
      auto material = t.Time("core.kb.fetch", [&] {
        return core::FetchTransformMaterial(*party, broker->identity_public(), rng);
      });
      DETA_CHECK_MSG(material.has_value(), "replayed key-broker fetch failed");
    }
    t.End(root);
  }
  if (broker) {
    broker->Stop();
    broker->Join();
  }
}

// A sealed channel pair as the handshake leaves it: party (initiator) and aggregator
// (responder) sides of one registration.
struct ChannelPair {
  net::SecureChannel party;
  net::SecureChannel agg;
};

ChannelPair Handshake(AuthResponder& responder, net::Endpoint& party,
                      const std::string& agg, crypto::SecureRng& rng) {
  auto mine = core::RegisterWithAggregator(party, agg, responder.token_public(), rng);
  DETA_CHECK_MSG(mine.has_value(), "registration for the round replay failed");
  std::optional<net::SecureChannel> theirs;
  for (int i = 0; i < 200 && !theirs.has_value(); ++i) {
    theirs = responder.TakeChannel();
    if (!theirs.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  DETA_CHECK_MSG(theirs.has_value(), "responder channel missing");
  return ChannelPair{std::move(*mine), std::move(*theirs)};
}

// One round's critical path as party0 and aggregator0 see it: train, Trans, encode and
// seal every fragment, the wire to the aggregator and back, open and decode the four
// uploads, aggregate, encode and seal four results, then open, decode and Trans^-1 the
// three results on the party.
void TraceRound(TraceContext& ctx, crypto::SecureRng& rng) {
  Tracer& t = ctx.tracer;
  const core::ClusterSpec& spec = ctx.spec;
  const size_t parties = static_cast<size_t>(spec.parties);
  const size_t aggs = static_cast<size_t>(spec.aggregators);
  const bool paillier = spec.use_paillier;

  std::unique_ptr<nn::Model> model = core::ClusterModelFactory(spec)();
  std::vector<float> global = model->GetFlatParams();
  std::vector<std::unique_ptr<fl::Party>> trainers =
      core::BuildLocalParties(spec, {"party0"});

  core::TransformMaterial material;
  material.total_params = model->NumParameters();
  material.mapper_seed = Secret<Bytes>(rng.NextBytes(32));
  material.permutation_key =
      Secret<Bytes>(core::GeneratePermutationKey(128, rng.NextBytes(32)));
  material.num_aggregators = spec.aggregators;
  std::shared_ptr<core::Transform> transform = material.BuildTransform();

  // The job's key size; plaintext workloads time the Paillier ops off the path below.
  crypto::PaillierKeyPair key =
      crypto::GeneratePaillierKey(rng, fl::ExecutionOptions{}.paillier_modulus_bits);
  fl::PaillierVectorCodec codec(key.pub, spec.parties);
  std::unique_ptr<fl::AggregationAlgorithm> algorithm = fl::MakeAlgorithm(spec.algorithm);

  // One channel pair per aggregator for party0's uploads and results.
  net::MessageBus auth_bus;
  auto party_ep = auth_bus.CreateEndpoint("party0");
  std::vector<ChannelPair> channels;
  for (const std::string& name : spec.AggregatorNames()) {
    AuthResponder responder(auth_bus, name, crypto::SecureRng(rng.NextBytes(32)));
    channels.push_back(Handshake(responder, *party_ep, name, rng));
  }

  // Both wires: a real TCP hop between two nodes, and the in-proc bus.
  net::MessageBus inproc;
  net::TcpTransportOptions host_options;
  host_options.node_name = "trace-host";
  net::TcpTransport tcp_host(host_options);
  net::TcpTransportOptions client_options;
  client_options.node_name = "trace-client";
  client_options.registry_addr = tcp_host.registry_address();
  net::TcpTransport tcp_client(client_options);
  auto tcp_ping = tcp_host.CreateEndpoint("rtt-party");
  Echo tcp_echo(tcp_client, "rtt-agg");
  auto inproc_ping = inproc.CreateEndpoint("rtt-party");
  Echo inproc_echo(inproc, "rtt-agg");
  auto rtt = [&](bool tcp, const Bytes& payload) {
    bool ok = tcp ? t.Time("net.tcp.rtt", [&] { return RoundTrip(*tcp_ping, "rtt-agg", payload); })
                  : t.Time("net.inproc.rtt",
                           [&] { return RoundTrip(*inproc_ping, "rtt-agg", payload); });
    DETA_CHECK_MSG(ok, "rtt probe lost");
  };
  Bytes probe;  // a sealed upload, sized like the workload's fragments
  size_t probe_values = 0;

  for (int rep = 0; rep <= ctx.reps; ++rep) {
    // Rep 0 warms caches, the pool and the sockets; its spans stay under "warmup".
    int root = t.Begin(rep == 0 ? "warmup.round" : "replay.round");
    const int round = rep + 1;
    fl::Party::LocalResult local =
        t.Time("fl.party.train", [&] { return trainers[0]->RunLocalRound(global, round); });
    std::vector<std::vector<float>> fragments = t.Time("core.transform.apply", [&] {
      return transform->Apply(local.update.values, static_cast<uint64_t>(round));
    });
    std::vector<Bytes> sealed(aggs);
    Bytes agg0_plain;
    for (size_t j = 0; j < aggs; ++j) {
      Bytes payload;
      if (paillier) {
        std::vector<crypto::BigUint> ct = t.Time(
            "crypto.paillier.encrypt", [&] { return codec.Encrypt(fragments[j], rng); },
            static_cast<int64_t>(codec.CiphertextCount(fragments[j].size())));
        payload = t.Time("fl.update.encode", [&] { return fl::SerializeCiphertexts(ct); });
      } else {
        fl::ModelUpdate update;
        update.values = fragments[j];
        update.weight = local.update.weight;
        payload = t.Time("fl.update.encode", [&] { return fl::SerializeUpdate(update); });
      }
      sealed[j] =
          t.Time("net.channel.seal", [&] { return channels[j].party.Seal(payload, rng); });
      if (j == 0) {
        agg0_plain = std::move(payload);
      }
    }
    probe = sealed[0];
    probe_values = fragments[0].size();
    // Upload and result hop, as one round trip at the sealed fragment's size.
    rtt(ctx.wire_tcp, sealed[0]);

    // Aggregator0 opens and decodes one upload per party (party0's frame stands in for
    // all four; a fresh seal per party keeps the replay window monotonic).
    std::vector<Bytes> uploads = {sealed[0]};
    t.Time(kStandIn, [&] {
      for (size_t p = 1; p < parties; ++p) {
        uploads.push_back(channels[0].party.Seal(agg0_plain, rng));
      }
    });
    std::vector<fl::ModelUpdate> updates;
    std::vector<std::vector<crypto::BigUint>> cts;
    for (const Bytes& upload : uploads) {
      std::optional<Bytes> plain =
          t.Time("net.channel.open", [&] { return channels[0].agg.Open(upload); });
      DETA_CHECK_MSG(plain.has_value(), "replayed upload failed to open");
      if (paillier) {
        cts.push_back(
            t.Time("fl.update.decode", [&] { return fl::DeserializeCiphertexts(*plain); }));
      } else {
        updates.push_back(
            t.Time("fl.update.decode", [&] { return fl::DeserializeUpdate(*plain); }));
      }
    }
    Bytes result_plain;
    if (paillier) {
      std::vector<crypto::BigUint> acc = cts[0];
      t.Time(
          "crypto.paillier.add",
          [&] {
            for (size_t p = 1; p < parties; ++p) {
              codec.AccumulateInPlace(acc, cts[p]);
            }
          },
          static_cast<int64_t>(acc.size() * (parties - 1)));
      result_plain = t.Time("fl.update.encode", [&] { return fl::SerializeCiphertexts(acc); });
    } else {
      fl::ModelUpdate aggregated;
      aggregated.values =
          t.Time("fl.aggregation", [&] { return algorithm->Aggregate(updates); });
      result_plain = t.Time("fl.update.encode", [&] { return fl::SerializeUpdate(aggregated); });
    }
    std::vector<Bytes> results;
    for (size_t p = 0; p < parties; ++p) {
      results.push_back(
          t.Time("net.channel.seal", [&] { return channels[0].agg.Seal(result_plain, rng); }));
    }

    // Party0 opens, decodes and merges one result per aggregator (aggregator0's frame,
    // resealed on each channel, stands in for the others at the same size).
    std::vector<std::vector<float>> merged(aggs);
    for (size_t j = 0; j < aggs; ++j) {
      Bytes frame = j == 0 ? results[0] : t.Time(kStandIn, [&] {
        return channels[j].agg.Seal(result_plain, rng);
      });
      std::optional<Bytes> plain =
          t.Time("net.channel.open", [&] { return channels[j].party.Open(frame); });
      DETA_CHECK_MSG(plain.has_value(), "replayed result failed to open");
      if (paillier) {
        std::vector<crypto::BigUint> ct =
            t.Time("fl.update.decode", [&] { return fl::DeserializeCiphertexts(*plain); });
        merged[j] = t.Time(
            "crypto.paillier.decrypt",
            [&] { return codec.DecryptSum(ct, key.priv, probe_values, spec.parties); },
            static_cast<int64_t>(ct.size()));
      } else {
        merged[j] =
            t.Time("fl.update.decode", [&] { return fl::DeserializeUpdate(*plain).values; });
      }
      merged[j].resize(fragments[j].size());
    }
    global = t.Time("core.transform.invert", [&] {
      return transform->Invert(merged, static_cast<uint64_t>(round));
    });
    t.End(root);
  }

  // Off the replayed path, so every workload reports every layer: the other wire's RTT,
  // and either the plaintext aggregation call (Paillier workloads) or the Paillier ops
  // (plaintext workloads), at this workload's fragment size. Per-op Paillier cost does
  // not depend on vector length, so those calls cap it.
  const std::vector<float> values(paillier ? probe_values : std::min<size_t>(probe_values, 4096),
                                  0.01f);
  int calls = t.Begin("calls.round");
  for (int rep = 0; rep < ctx.reps; ++rep) {
    rtt(!ctx.wire_tcp, probe);
    if (paillier) {
      fl::ModelUpdate update;
      update.values = values;
      std::vector<fl::ModelUpdate> updates(parties, update);
      t.Time("fl.aggregation", [&] { return algorithm->Aggregate(updates); });
    } else {
      const auto count = static_cast<int64_t>(codec.CiphertextCount(values.size()));
      std::vector<crypto::BigUint> acc =
          t.Time("crypto.paillier.encrypt", [&] { return codec.Encrypt(values, rng); }, count);
      std::vector<crypto::BigUint> other = acc;
      t.Time("crypto.paillier.add", [&] { codec.AccumulateInPlace(acc, other); }, count);
      t.Time("crypto.paillier.decrypt",
             [&] { return codec.DecryptSum(acc, key.priv, values.size(), 2); }, count);
    }
  }
  t.End(calls);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      return 2;
    }
    size_t eq = arg.find('=');
    flags[arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2)] =
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  SetLogLevel(LogLevel::kWarning);
  core::ClusterSpec spec = core::ClusterSpec::FromFlags(flags);

  // Child roles of --mode=cluster: LaunchCluster re-execs this binary with --role.
  if (flags.count("role") != 0) {
    return core::RunClusterChild(spec, flags["role"], flags["registry"]);
  }
  const std::string mode = flags["mode"];
  const std::string out = flags["out"];
  if (out.empty()) {
    std::fprintf(stderr, "--out=DIR is required\n");
    return 2;
  }
  ::mkdir(out.c_str(), 0755);

  if (mode == "job") {
    core::DetaJob job(core::BuildExecutionOptions(spec), core::BuildDetaOptions(spec),
                      core::BuildLocalParties(spec, spec.PartyNames()),
                      core::ClusterModelFactory(spec), core::ClusterEvalData(spec));
    fl::JobResult result = job.Run();
    ::mkdir((out + "/telemetry").c_str(), 0755);
    telemetry::WriteJsonFile(result.telemetry, out + "/telemetry/job.json");
    WriteResult(result, {}, out);
    return 0;
  }
  if (mode == "cluster") {
    core::ClusterResult result = core::LaunchCluster(spec, argv[0]);
    WriteResult(result.observer, result.roles, out);
    return 0;
  }
  if (mode == "reference") {
    fl::FflJob job(core::BuildExecutionOptions(spec),
                   core::BuildLocalParties(spec, spec.PartyNames()),
                   core::ClusterModelFactory(spec), core::ClusterEvalData(spec));
    fl::JobResult result = job.Run();
    WriteParams(result.final_params, out + "/params.bin");
    return result.ok() ? 0 : 1;
  }
  if (mode == "trace") {
    TraceContext ctx;
    ctx.spec = spec;
    ctx.reps = std::max(1, std::atoi(flags["reps"].c_str()));
    ctx.wire_tcp = flags["wire"] == "tcp";
    parallel::SetDefaultThreads(spec.threads);
    crypto::SecureRng rng(StringToBytes("e2ebench-trace-" + std::to_string(spec.seed)));
    TraceEcCalls(ctx, rng);
    TraceSetup(ctx, rng);
    TraceRound(ctx, rng);
    return ctx.tracer.Write(out + "/trace.json") ? 0 : 1;
  }
  std::fprintf(stderr, "unknown --mode=%s (job|cluster|reference|trace)\n", mode.c_str());
  return 2;
}
