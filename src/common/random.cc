#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace memories
{

namespace
{

/** SplitMix64 step used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
    // All-zero state is the one invalid state for xoshiro.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

void
Rng::setState(const std::array<std::uint64_t, 4> &s)
{
    if ((s[0] | s[1] | s[2] | s[3]) == 0)
        fatal("Rng::setState: the all-zero state is invalid");
    for (std::size_t i = 0; i < 4; ++i)
        s_[i] = s[i];
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound == 0)
        MEMORIES_PANIC("nextBounded(0)");
    // Lemire's nearly-divisionless multiply-shift rejection: a draw
    // whose low word is at least the threshold (-bound) % bound is
    // accepted. The threshold is below bound, so only a low word below
    // bound needs the division to decide.
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) {
        const std::uint64_t threshold = (0 - bound) % bound;
        while (static_cast<std::uint64_t>(m) < threshold)
            m = static_cast<__uint128_t>(next()) * bound;
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
ZipfSampler::zeta(std::uint64_t n, double theta)
{
    // Direct sum for small n; integral approximation tail for large n so
    // construction over billions of items stays O(1)-ish.
    constexpr std::uint64_t exact_limit = 1u << 20;
    double sum = 0.0;
    std::uint64_t exact = n < exact_limit ? n : exact_limit;
    for (std::uint64_t i = 1; i <= exact; ++i)
        sum += std::pow(1.0 / static_cast<double>(i), theta);
    if (n > exact) {
        // Integral of x^-theta from exact to n (theta < 1 assumed).
        double a = static_cast<double>(exact);
        double b = static_cast<double>(n);
        sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
               (1.0 - theta);
    }
    return sum;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    if (n == 0)
        fatal("ZipfSampler requires at least one item");
    if (theta < 0.0 || theta >= 1.0)
        fatal("ZipfSampler skew must be in [0, 1), got ", theta);
    zetan_ = zeta(n, theta);
    const double zeta2 = zeta(2 < n ? 2 : n, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
    rankOneBound_ = 1.0 + std::pow(0.5, theta);
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    // Gray et al., "Quickly generating billion-record synthetic databases".
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < rankOneBound_)
        return 1;
    const double frac =
        std::pow(eta_ * u - eta_ + 1.0, alpha_);
    auto rank = static_cast<std::uint64_t>(static_cast<double>(n_) * frac);
    return rank >= n_ ? n_ - 1 : rank;
}

} // namespace memories
