#include "oracle/stimulus.hh"

#include <array>

#include "common/logging.hh"
#include "trace/record.hh"
#include "trace/tracefile.hh"

namespace memories::oracle
{

StimulusGen::StimulusGen(StimulusParams params)
    : params_(std::move(params))
{
    if (params_.cpus == 0 || params_.cpus > maxHostCpus)
        fatal("stimulus needs 1..", maxHostCpus, " CPUs, got ",
              params_.cpus);
    if (params_.footprintLines == 0 || params_.sharedLines == 0)
        fatal("stimulus pools need at least one line each");
}

std::vector<bus::BusTransaction>
StimulusGen::generate() const
{
    Rng rng(params_.seed);
    const ZipfSampler shared_pool(params_.sharedLines,
                                  params_.zipfTheta);
    const ZipfSampler private_pool(params_.footprintLines,
                                   params_.zipfTheta);

    // Cumulative op-mix table. The filtered weight spreads over the
    // four non-memory commands so the address filter sees all of them.
    struct Slot { bus::BusOp op; double w; };
    const std::array<Slot, 13> mix{{
        {bus::BusOp::Read, params_.pRead},
        {bus::BusOp::ReadIfetch, params_.pIfetch},
        {bus::BusOp::Rwitm, params_.pRwitm},
        {bus::BusOp::DClaim, params_.pDclaim},
        {bus::BusOp::WriteBack, params_.pWriteback},
        {bus::BusOp::WriteKill, params_.pWritekill},
        {bus::BusOp::Flush, params_.pFlush},
        {bus::BusOp::Clean, params_.pClean},
        {bus::BusOp::Kill, params_.pKill},
        {bus::BusOp::IoRead, params_.pFiltered / 4},
        {bus::BusOp::IoWrite, params_.pFiltered / 4},
        {bus::BusOp::Interrupt, params_.pFiltered / 4},
        {bus::BusOp::Sync, params_.pFiltered / 4},
    }};
    double total = 0;
    for (const Slot &slot : mix)
        total += slot.w;
    if (total <= 0)
        fatal("stimulus op mix has no positive weight");

    std::vector<bus::BusTransaction> stream;
    stream.reserve(params_.count);
    Cycle cycle = 1;
    for (std::size_t i = 0; i < params_.count; ++i) {
        bus::BusTransaction txn;

        double draw = rng.nextDouble() * total;
        txn.op = mix.back().op;
        for (const Slot &slot : mix) {
            if (draw < slot.w) {
                txn.op = slot.op;
                break;
            }
            draw -= slot.w;
        }

        txn.cpu = static_cast<CpuId>(rng.nextBounded(params_.cpus));

        // Shared pool at line 0; each CPU's private pool follows it.
        std::uint64_t line;
        if (rng.nextBool(params_.shareFraction)) {
            line = shared_pool.sample(rng);
        } else {
            line = params_.sharedLines +
                   txn.cpu * params_.footprintLines +
                   private_pool.sample(rng);
        }
        txn.addr = line * 128;
        txn.size = 128;

        if (i > 0 && !rng.nextBool(params_.pBurst))
            cycle += 1 + rng.nextBounded(params_.maxGap);
        txn.cycle = cycle;
        txn.traceId = static_cast<std::uint32_t>(i + 1);
        stream.push_back(txn);
    }
    return stream;
}

fault::FaultSpec
randomFaultSpec(Rng &rng)
{
    fault::FaultSpec spec;
    spec.kind = static_cast<fault::FaultKind>(
        rng.nextBounded(fault::numFaultKinds));

    // Exactly one trigger, and probabilities only as k/10000: four
    // decimal digits survive describe()'s default-precision printing,
    // so the round-trip property holds with no tolerance.
    if (rng.nextBool(0.5))
        spec.atTenure = 1 + rng.nextBounded(2000);
    else
        spec.probability = static_cast<double>(
                               1 + rng.nextBounded(9999)) / 10000.0;

    // Only the fields describe() prints for this kind; anything else
    // would be generated, silently dropped by the text form, and fail
    // the parse(describe(p)) == p comparison.
    switch (spec.kind) {
      case fault::FaultKind::AddressFlip:
        spec.bit = static_cast<unsigned>(rng.nextBounded(64));
        break;
      case fault::FaultKind::TagFlip:
        spec.node = static_cast<std::uint8_t>(rng.nextBounded(256));
        spec.bit = static_cast<unsigned>(rng.nextBounded(64));
        break;
      case fault::FaultKind::DelayReply:
      case fault::FaultKind::RetirementStall:
        spec.cycles = 1 + rng.nextBounded(5000);
        break;
      case fault::FaultKind::SlotLoss:
        spec.slots = 1 + rng.nextBounded(512);
        spec.cycles = 1 + rng.nextBounded(5000);
        break;
      default:
        break;
    }
    return spec;
}

fault::FaultPlan
randomFaultPlan(Rng &rng, std::size_t maxSpecs)
{
    if (maxSpecs == 0)
        fatal("randomFaultPlan needs maxSpecs >= 1");
    fault::FaultPlan plan;
    const std::size_t n = 1 + rng.nextBounded(maxSpecs);
    for (std::size_t i = 0; i < n; ++i)
        plan.faults.push_back(randomFaultSpec(rng));
    return plan;
}

std::vector<bus::BusTransaction>
shrinkStream(std::vector<bus::BusTransaction> stream,
             const FailPredicate &stillFails)
{
    if (!stillFails(stream))
        fatal("shrinkStream called with a stream that does not fail");

    std::size_t chunk = stream.size() / 2;
    while (chunk >= 1) {
        bool removed_any = false;
        std::size_t start = 0;
        while (start < stream.size()) {
            const std::size_t end =
                start + chunk < stream.size() ? start + chunk
                                              : stream.size();
            std::vector<bus::BusTransaction> candidate;
            candidate.reserve(stream.size() - (end - start));
            candidate.insert(candidate.end(), stream.begin(),
                             stream.begin() +
                                 static_cast<std::ptrdiff_t>(start));
            candidate.insert(candidate.end(),
                             stream.begin() +
                                 static_cast<std::ptrdiff_t>(end),
                             stream.end());
            if (!candidate.empty() && stillFails(candidate)) {
                stream = std::move(candidate);
                removed_any = true;
                // Re-try the same window: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if (chunk == 1 && !removed_any)
            break;
        if (chunk > 1)
            chunk /= 2;
    }
    return stream;
}

std::vector<bus::BusTransaction>
canonicalizeForReplay(const std::vector<bus::BusTransaction> &stream)
{
    std::vector<bus::BusTransaction> canon;
    canon.reserve(stream.size());
    Cycle cycle = 1;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        bus::BusTransaction txn = stream[i];
        if (i > 0) {
            Cycle gap = stream[i].cycle > stream[i - 1].cycle
                            ? stream[i].cycle - stream[i - 1].cycle
                            : 0;
            if (gap > trace::maxCycleDelta)
                gap = trace::maxCycleDelta;
            cycle += gap;
        }
        txn.cycle = cycle;
        txn.traceId = static_cast<std::uint32_t>(i + 1);
        txn.size = 128;
        txn.isRetryReplay = false;
        canon.push_back(txn);
    }
    return canon;
}

std::vector<bus::BusTransaction>
readTrace(const std::string &path)
{
    std::vector<bus::BusTransaction> stream =
        trace::readBusTrace(path).stream;
    for (std::size_t i = 0; i < stream.size(); ++i)
        stream[i].traceId = static_cast<std::uint32_t>(i + 1);
    return stream;
}

} // namespace memories::oracle
